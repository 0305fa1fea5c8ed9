"""Per-layer spans, recorded from outside the package.

``Tracer.install`` swaps the public rmtorus functions in ``TARGETS`` for
timing wrappers.  A function imported by name into another module (as
``coord_ring`` imports ``balanced_product`` and ``cli`` imports
``fixing_matrix``) is reached through that module's own global, so every
``rmtorus.*`` module global and class attribute that refers to the original
object is rebound, and ``uninstall`` puts each one back.

Each span keeps its name, start, end, parent span and job id in flat arrays;
``save`` writes them out once the run is over.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


def _atom_points(args, result):
    return (np.size(args[1]),)


def _term_pairs(args, result):
    x, y = args[0], args[1]
    return (len(x.coeffs) * len(y.coeffs) if hasattr(y, "coeffs") else 0,)


def _balanced_counts(args, result):
    report = result[1]
    return (report.get("s_terms", 0), len(report.get("per_j_residual", ())),
            report.get("grid_points", 0))


def _theta_terms(args, result):
    return (result.terms,)


# (module, attribute path, span name, counter names, counter function)
TARGETS = (
    ("cli", "main", "cli.main", (), None),
    ("coord_ring", "mult", "coord_ring.mult", (), None),
    ("coord_ring", "associativity_residual", "coord_ring.associativity_residual", (), None),
    ("coord_ring", "structure_tensor", "coord_ring.structure_tensor", (), None),
    ("coord_ring", "check_generation", "coord_ring.check_generation", (), None),
    ("coord_ring", "check_quadratic", "coord_ring.check_quadratic", (), None),
    ("heis_module", "balanced_product", "heis_module.balanced_product",
     ("s_terms", "solves", "grid_points"), _balanced_counts),
    ("heis_module", "module_residuals", "heis_module.module_residuals", (), None),
    ("heis_rep", "GaussianAtom.value", "heis_rep.atom_eval", ("points",), _atom_points),
    ("torus_alg", "TorusElement.__mul__", "torus_alg.mul", ("term_pairs",), _term_pairs),
    ("qfield", "fixing_matrix", "qfield.fixing_matrix", (), None),
    ("qfield", "cf_expand", "qfield.cf_expand", (), None),
    ("theta", "theta_const", "theta.theta_const", ("terms",), _theta_terms),
    ("theta", "theta_fn", "theta.theta_fn", ("terms",), _theta_terms),
)


class Tracer:
    def __init__(self):
        self.names = [t[2] for t in TARGETS]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counters = {t[2]: [0] * len(t[3]) for t in TARGETS}
        self.job_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, nid: int, fn, count):
        name_id, start, end, parent, job = self.name_id, self.start, self.end, self.parent, self.job
        stack = self._stack
        totals = self.counters[self.names[nid]]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                for i, v in enumerate(count(args, result)):
                    totals[i] += v
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rmtorus" or n.startswith("rmtorus."))]
        owners = list(modules)
        for m in modules:
            owners += [v for v in vars(m).values()
                       if isinstance(v, type) and v.__module__.startswith("rmtorus")]
        for nid, (mod, path, _name, _counters, count) in enumerate(TARGETS):
            obj = sys.modules[f"rmtorus.{mod}"]
            for part in path.split("."):
                obj = vars(obj)[part]
            wrapper = self._wrap(nid, obj, count)
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    if val is obj:
                        self._undo.append((owner, attr, val))
                        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, total_s and the counters."""
        nid = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=dur - child, minlength=k)
        total_s = np.bincount(nid, weights=dur, minlength=k)
        out = {}
        for i, (_m, _p, name, counters, _c) in enumerate(TARGETS):
            row = {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            row.update(zip(counters, self.counters[name]))
            out[name] = row
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int32),
                 job=np.array(self.job, dtype=np.int32))
