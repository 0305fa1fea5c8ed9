"""Workload process: runs one workload's jobs in-process, one after another.

Started by run.py with BLAS threads pinned to 1.  Each job is one
``rmtorus.cli.main(argv)`` call with its stdout and stderr captured; the
import is paid once, before the first job.  Outputs are checked against the
oracles after the timed batches.  Prints one JSON object on its last line.

With ``--trace 0`` the batch is repeated, each round starting from an empty
``unit_phase`` cache as a fresh CLI process would, while another round still
fits in ``--seconds``.  With ``--trace 1`` it runs one untraced round and one
traced round, requires byte-identical stdout from both, and reports the
per-layer totals and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import mpmath  # noqa: E402
import rmtorus  # noqa: E402
from rmtorus import cli, qfield  # noqa: E402

from oracles import verdict  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

MAX_ROUNDS = 200


def run_job(argv) -> tuple[float, object, str, str, str | None]:
    """(seconds, exit code, stdout, stderr, error) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc, error = exc.code, f"SystemExit({exc.code})"
    except Exception:
        rc, error = None, traceback.format_exc()
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue(), error


def run_batch(jobs, tracer: Tracer | None = None):
    """Wall time of the whole batch and each job's run_job record."""
    qfield.unit_phase.cache_clear()
    records = []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = i
        records.append(run_job(job.argv))
    return time.perf_counter() - t0, records


def traced_batch(jobs, tracer: Tracer):
    """run_batch under the tracer, plus the unit_phase cache hits and misses.

    run_batch clears the cache, which also zeroes its statistics.
    """
    tracer.install()
    try:
        wall, records = run_batch(jobs, tracer)
        info = qfield.unit_phase.cache_info()
    finally:
        tracer.uninstall()
    return wall, records, info.hits, info.misses


# (metric, span, field, unit) read from Tracer.layer_totals()
LAYER_METRICS = (
    ("coord_ring.mult.calls", "coord_ring.mult", "calls", "count"),
    ("coord_ring.mult.self_s", "coord_ring.mult", "self_s", "s"),
    ("coord_ring.associativity_residual.total_s", "coord_ring.associativity_residual", "total_s", "s"),
    ("coord_ring.structure_tensor.calls", "coord_ring.structure_tensor", "calls", "count"),
    ("coord_ring.structure_tensor.self_s", "coord_ring.structure_tensor", "self_s", "s"),
    ("coord_ring.check_quadratic.total_s", "coord_ring.check_quadratic", "total_s", "s"),
    ("coord_ring.check_generation.total_s", "coord_ring.check_generation", "total_s", "s"),
    ("heis_module.balanced_product.calls", "heis_module.balanced_product", "calls", "count"),
    ("heis_module.balanced_product.self_s", "heis_module.balanced_product", "self_s", "s"),
    ("heis_module.balanced_product.s_terms", "heis_module.balanced_product", "s_terms", "count"),
    ("heis_module.balanced_product.solves", "heis_module.balanced_product", "solves", "count"),
    ("heis_module.balanced_product.grid_points", "heis_module.balanced_product", "grid_points", "count"),
    ("heis_rep.atom_eval.calls", "heis_rep.atom_eval", "calls", "count"),
    ("heis_rep.atom_eval.self_s", "heis_rep.atom_eval", "self_s", "s"),
    ("heis_rep.atom_eval.points", "heis_rep.atom_eval", "points", "count"),
    ("heis_module.module_residuals.total_s", "heis_module.module_residuals", "total_s", "s"),
    ("torus_alg.mul.calls", "torus_alg.mul", "calls", "count"),
    ("torus_alg.mul.self_s", "torus_alg.mul", "self_s", "s"),
    ("torus_alg.mul.term_pairs", "torus_alg.mul", "term_pairs", "count"),
    ("qfield.fixing_matrix.calls", "qfield.fixing_matrix", "calls", "count"),
    ("qfield.fixing_matrix.self_s", "qfield.fixing_matrix", "self_s", "s"),
    ("qfield.cf_expand.self_s", "qfield.cf_expand", "self_s", "s"),
    ("theta.theta_const.calls", "theta.theta_const", "calls", "count"),
    ("theta.theta_const.self_s", "theta.theta_const", "self_s", "s"),
    ("theta.theta_const.terms", "theta.theta_const", "terms", "count"),
    ("theta.theta_fn.calls", "theta.theta_fn", "calls", "count"),
    ("theta.theta_fn.self_s", "theta.theta_fn", "self_s", "s"),
    ("theta.theta_fn.terms", "theta.theta_fn", "terms", "count"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
)


def layer_metrics(totals: dict, hits: int, misses: int, overhead_s: float) -> dict:
    out = {name: {"value": totals[span][key], "unit": unit}
           for name, span, key, unit in LAYER_METRICS}
    lookups = hits + misses
    out["qfield.unit_phase.lookups"] = {"value": lookups, "unit": "count"}
    out["qfield.unit_phase.hit_ratio"] = {"value": hits / lookups if lookups else 0.0,
                                          "unit": "ratio"}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mpmath": mpmath.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": cpu, "nproc": os.cpu_count(),
    }


def check(jobs, rounds) -> tuple[int, int, Counter]:
    """(failed, wrong, reasons) over the jobs of the batch.

    A job is one operation however many rounds ran it: it fails when its
    output fails the oracle in any round, and is wrong when it is wrong in
    any.  So the counts depend on the inputs only, not on how many rounds
    fitted in the time.
    """
    failed = wrong = 0
    reasons: Counter = Counter()
    for i, job in enumerate(jobs):
        outcomes = {(rc, out, error) for _dt, rc, out, _err, error in (r[i] for r in rounds)}
        verdicts = [verdict(job.kind, job.spec, rc, out, error) for rc, out, error in outcomes]
        bad = [v for v in verdicts if v[0] != "ok"]
        if bad:
            status, reason = min(bad, key=lambda v: (v[0] != "wrong", v[1]))
            failed += 1
            wrong += status == "wrong"
            reasons[reason] += 1
    return failed, wrong, reasons


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if Path(rmtorus.__file__).resolve().parent != ROOT / "src" / "rmtorus":
        print(f"error: rmtorus imported from {rmtorus.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 1
    jobs = generate(args.workload, args.seed)
    ready = time.time()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    result: dict = {"ready": ready, "jobs": len(jobs)}
    if args.trace:
        wall0, records0 = run_batch(jobs)
        tracer = Tracer()
        wall1, records1, hits, misses = traced_batch(jobs, tracer)
        rounds = [records0, records1]
        result["trace_mismatch"] = sum(a[2] != b[2] for a, b in zip(records0, records1))
        result["per_layer"] = layer_metrics(tracer.layer_totals(), hits, misses, wall1 - wall0)
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}-{args.seed}.npz")
        walls = [wall0]
    else:
        rounds, walls = [], []
        start = time.perf_counter()
        while len(rounds) < MAX_ROUNDS:
            wall, records = run_batch(jobs)
            rounds.append(records)
            walls.append(wall)
            if time.perf_counter() - start + statistics.median(walls) > args.seconds:
                break
    times = sorted(rec[0] for records in rounds for rec in records)
    failed, wrong, reasons = check(jobs, rounds)
    result.update({
        "rounds": len(rounds), "attempted": len(jobs), "timings": len(times),
        "failed": failed, "wrong": wrong,
        "reasons": dict(reasons), "solve_s": statistics.median(walls),
        "job_s.p50": statistics.median(times),
        "job_s.p90": statistics.quantiles(times, n=10)[8] if len(times) >= 100 else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
