"""Benchmark of the rmtorus command line jobs.

    python3 perfbench/run.py --workload {ring,ring-deep,algebra,arith}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Each workload runs in its own process (perfbench/worker.py) with BLAS
threads pinned to 1.  Set-up is measured from process start to the first job
being ready, in that process and in four more that only set up; the median
is reported.  Human-readable lines come first; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
DEADLINE_S = 170.0
END_TO_END = {"setup_s": "s", "solve_s": "s", "job_s.p50": "s", "peak_rss_mb": "MB"}
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}


def spawn_worker(args, deadline: float, setup_only: bool = False) -> tuple[float, dict]:
    """Start the workload process, wait for it, return (spawn time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED)
    spawned = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload process ran past the deadline; killed") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return spawned, json.loads(lines[-1])


def summary_lines(args, res: dict, setup: list[float]) -> list[str]:
    n = res["timings"]
    passes = "an untraced and a traced pass" if args.trace else f"{res['rounds']} round(s)"
    lines = [f"workload {args.workload} seed {args.seed}: {res['jobs']} jobs x {passes}"]
    if not args.trace:
        lines += [
            f"setup_s      {statistics.median(setup):.4f} s (median of {len(setup)} processes)",
            f"solve_s      {res['solve_s']:.4f} s (median of {res['rounds']} batch(es))",
            f"job_s.p50    {res['job_s.p50']:.6f} s (n={n})",
        ]
        if res["job_s.p90"] is not None:
            lines.append(f"job_s.p90    {res['job_s.p90']:.6f} s (n={n})")
        lines.append(f"peak_rss_mb  {res['peak_rss_mb']:.1f} MB")
    else:
        lines.append(f"trace: {res['trace_mismatch']} job(s) with stdout differing from the untraced run")
    jobs = res["attempted"]
    lines.append(f"fail_frac    {res['failed'] / jobs:.4f} ({res['failed']}/{jobs} jobs; "
                 f"{res['wrong']} wrong results)")
    lines += [f"  {count:5d}  {reason}" for reason, count in sorted(res["reasons"].items())]
    lines.append("env          " + json.dumps(res["env"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rmtorus CLI benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "rmtorus" / "__init__.py").is_file():
        print(f"error: no rmtorus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                spawned, probe = spawn_worker(args, deadline, setup_only=True)
                setup.append(probe["ready"] - spawned)
        spawned, res = spawn_worker(args, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(res["ready"] - spawned)
    print("\n".join(summary_lines(args, res, setup)))

    if args.trace:
        metrics = res["per_layer"]
    else:
        res["setup_s"] = statistics.median(setup)
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END.items()}
    correct = res["wrong"] == 0 and not res.get("trace_mismatch")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
