"""Checks of the benchmark itself: generators, oracles, tracing, result format."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from oracles import Surd  # noqa: E402
from rmtorus import cli  # noqa: E402
from spans import Tracer  # noqa: E402


def test_generators_are_seeded():
    for name in workloads.WORKLOADS:
        a, b = workloads.generate(name, 5), workloads.generate(name, 5)
        assert [j.argv for j in a] == [j.argv for j in b]
        assert [j.argv for j in a] != [j.argv for j in workloads.generate(name, 6)]
        for job in a:
            if job.argv != workloads.README_RING:
                assert all(tok.startswith("--") and "=" in tok for tok in job.argv[1:])


def test_job_mix():
    ring = workloads.generate("ring", 0)
    assert ring[0].argv == workloads.README_RING
    assert all("--assoc-triples=1" in j.argv for j in ring[1:])
    deep = workloads.generate("ring-deep", 0)
    assert all(oracles.mat_pow(j.spec["g"], j.spec["max_degree"])[1][0] >= 90 for j in deep)
    algebra = workloads.generate("algebra", 0)
    arith = workloads.generate("arith", 0)
    kinds = [j.kind for j in algebra + arith]
    assert [kinds.count(k) for k in ("algebra", "module-check", "fix", "theta")] == [10, 40, 53, 60]
    for seed in range(20):
        arith = workloads.generate("arith", seed)
        fixes = [j for j in arith if j.kind == "fix"]
        assert sum(j.spec["fundamental_trace"] > 10 ** 7 for j in fixes) == 6
        assert sorted(j.argv for j in arith if j.kind == "theta") == \
            sorted(j.argv for j in workloads.theta_panel())


def test_fundamental_trace():
    assert oracles.fundamental_trace(Surd(0, 1, 1, 61)) == 2 * 1766319049
    assert oracles.fundamental_trace(Surd(-5, 1, 10, 5)) == 3
    assert oracles.fundamental_trace(Surd(-5, -1, 10, 5)) == 3
    assert oracles.fundamental_trace(Surd(3, 1, 6, 3)) == 4
    assert oracles.fundamental_trace(Surd(1, 1, 2, 5)) == 3
    assert sum(oracles.fundamental_trace(s) > 10 ** 7 for s in workloads.quadratic_forms()) == 18


def test_theta_reference():
    ref, allowance = oracles.theta_reference(Fraction(0), 1j, None, 3)
    assert abs(ref - 1.0864348112133080146) < 1e-16
    assert 0 < allowance < 1e-13


def test_verdicts():
    spec = {"theta": Surd(0, 1, 1, 61), "fundamental_trace": 2 * 1766319049, "max_trace": 10 ** 7}
    assert oracles.verdict("fix", spec, 3, "", None)[0] == "fail"
    assert oracles.verdict("fix", dict(spec, max_trace=10 ** 10), 3, "", None)[0] == "wrong"
    assert oracles.verdict("fix", spec, 2, "", "SystemExit(2)")[0] == "fail"
    good = {"report": {"g": [[-1, -1], [5, 4]], "trace": 3}}
    spec5 = {"theta": Surd(-5, 1, 10, 5), "fundamental_trace": 3, "max_trace": 10 ** 7}
    assert oracles.verdict("fix", spec5, 0, json.dumps(good), None) == ("ok", "")
    bad = {"report": {"g": [[4, 1], [-5, -1]], "trace": 3}}
    assert oracles.verdict("fix", spec5, 0, json.dumps(bad), None)[0] == "wrong"


def test_failures_count_jobs_not_rounds():
    spec = {"theta": Surd(0, 1, 1, 61), "fundamental_trace": 2 * 1766319049, "max_trace": 10 ** 7}
    job = workloads.Job("fix", ("fix", "--theta=(0+sqrt61)/1"), spec)
    refused = (1.4, 3, "", "", None)
    for rounds in (1, 3):
        failed, wrong, reasons = worker.check([job], [[refused]] * rounds)
        assert (failed, wrong, sum(reasons.values())) == (1, 0, 1)


def test_negative_real_part_reaches_the_program():
    _dt, rc, out, _err, error = worker.run_job(
        ("theta", "--r=1/3", "--m=-0.25+1.5i"))
    assert error is None and rc == 0
    assert json.loads(out)["report"]["m"] == [-0.25, 1.5]
    _dt, rc, _out, _err, error = worker.run_job(("theta", "--r", "1/3", "--m", "-0.25+1.5i"))
    assert rc == 2 and error == "SystemExit(2)"


def _cheap_jobs():
    """Every job kind, with the costly inputs of seed 0 left out to keep this fast."""
    arith = workloads.generate("arith", 0)
    fixes = [j for j in arith if j.kind == "fix" and j.spec["fundamental_trace"] < 10 ** 5]
    consts = [j for j in arith if j.kind == "theta" and j.spec["z"] is None]
    fns = [j for j in arith if j.kind == "theta" and j.spec["z"] is not None]
    algebra = workloads.generate("algebra", 0)
    suites = sorted((j for j in algebra if j.kind == "algebra"),
                    key=lambda j: int(j.argv[3].split("=")[1]))
    checks = [j for j in algebra if j.kind == "module-check"]
    rng = workloads.random.Random(0)
    ring = workloads._ring_job(rng, workloads.TRACE3_C5, 1, -1, "-0.2+0.9i", 2, 1, False)
    return fixes[:10] + consts[:5] + fns[:5] + suites[:2] + checks[:6] + [ring]


def test_traced_stdout_matches_untraced():
    jobs = _cheap_jobs()
    original = cli.main
    _wall0, plain = worker.run_batch(jobs)
    tracer = Tracer()
    _wall1, traced, hits, misses = worker.traced_batch(jobs, tracer)
    assert cli.main is original
    assert [r[2] for r in plain] == [r[2] for r in traced]
    assert all(r[4] is None for r in traced)
    totals = tracer.layer_totals()
    assert totals["cli.main"]["calls"] == len(jobs)
    for span in ("heis_module.balanced_product", "heis_rep.atom_eval", "torus_alg.mul",
                 "qfield.fixing_matrix", "theta.theta_const", "theta.theta_fn",
                 "heis_module.module_residuals", "coord_ring.structure_tensor"):
        assert totals[span]["calls"] > 0, span
    assert totals["heis_module.balanced_product"]["solves"] > 0
    assert 0 < totals["cli.main"]["self_s"] <= totals["cli.main"]["total_s"]
    metrics = worker.layer_metrics(totals, hits, misses, 0.1)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in bench["per_layer"])


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    names = [w["name"] for w in bench["workloads"]]
    assert names == [w for w in workloads.WORKLOADS if w in names]
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "arith", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
