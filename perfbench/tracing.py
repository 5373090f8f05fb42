"""Outside-in tracing of the sphrad package.

The tracer wraps every public function of the traced modules and rebinds
each wrapper under every name that a ``sphrad`` module looks it up by, so
calls made from inside the package are seen too.  Targets returned by a
traced function (an ``InequalitySystem`` or ``ConvexSetOracle``) get their
constraint callbacks wrapped as well.  Spans are kept in memory as
``(name, start, end, parent, op)`` tuples and written out at the end; the
per-layer metrics are derived from them.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import sys
import time
import types

import numpy as np

MODULES = ("gaussian", "oracles", "radial", "estimates", "solver", "cli")
CALLBACKS = ("eval_g", "grad_x_g", "grad_z_g", "project")
CALLBACK_SPANS = tuple(f"oracles.{cb}" for cb in CALLBACKS)
BATCH_FUNCS = ("radial.inequality_hits", "radial.enlarged_hits")

#: Names the per-layer metrics read.  A name missing at some commit is
#: reported as absent and the metrics built on it read zero.
PROBES = BATCH_FUNCS + (
    "estimates.prob_value", "estimates.prob_gradient",
    "estimates.prob_gradient_enlarged", "gaussian.sample_sphere",
    "gaussian.chi_cdf", "gaussian.chi_pdf", "solver.solve", "solver.validate",
    "cli.main",
)

# Rows of Z passed to a callback: eval_g/grad_*(i, x, Z) and project(x, Z).
_ROWS_ARG = {"eval_g": 2, "grad_x_g": 2, "grad_z_g": 2, "project": 1}


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.digest()


class Tracer:
    """Records spans around sphrad calls while installed."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, op]
        self.stack = []
        self.op = "setup"
        self.rows = {}             # (op, callback name) -> rows passed
        self.radial_rows = {}      # op -> callback rows issued inside a ray batch
        self.batches = []          # (span index, rays, constraints, repeat)
        self._seen = set()
        self._undo = []
        self.wrapped = set()
        self.absent = []
        self.pauses = []           # (start, end) of time to leave out of every span

    # -- installation -------------------------------------------------------

    def install(self):
        sphrad_modules = [m for name, m in sorted(sys.modules.items())
                          if (name == "sphrad" or name.startswith("sphrad."))
                          and isinstance(m, types.ModuleType)]
        for short in MODULES:
            try:
                mod = importlib.import_module(f"sphrad.{short}")
            except ImportError:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(name, fn)
                self.wrapped.add(name)
                for holder in sphrad_modules:
                    for key, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, key, wrapper)
                            self._undo.append((holder, key, fn))
        self.absent = [p for p in PROBES if p not in self.wrapped]

    def uninstall(self):
        for holder, key, fn in reversed(self._undo):
            setattr(holder, key, fn)
        self._undo.clear()

    # -- span recording -----------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn):
        tracer = self
        batch = name in BATCH_FUNCS

        def traced(*args, **kwargs):
            if batch:
                tracer._note_batch(name, args)
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            return tracer._wrap_target(result)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _note_batch(self, name, args):
        # inequality_hits(system, x, dirs, model, opts)
        # enlarged_hits(oracle, x, dirs, eps, model, opts)
        target, x, dirs = args[0], args[1], np.atleast_2d(args[2])
        eps = args[3] if name.endswith("enlarged_hits") else 0.0
        key = (getattr(target, "name", ""), float(eps), _digest(x, dirs))
        repeat = key in self._seen
        self._seen.add(key)
        constraints = getattr(target, "s", 1)
        self.batches.append((len(self.spans), dirs.shape[0], constraints, repeat))

    def _wrap_target(self, obj):
        if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
            return obj
        names = [f.name for f in dataclasses.fields(obj)]
        if not any(n in names for n in CALLBACKS):
            return obj
        changes = {n: self._wrap_callback(n, getattr(obj, n)) for n in CALLBACKS
                   if n in names and callable(getattr(obj, n))
                   and not getattr(getattr(obj, n), "_traced", False)}
        return dataclasses.replace(obj, **changes) if changes else obj

    def _wrap_callback(self, cb, fn):
        tracer = self
        name = f"oracles.{cb}"
        pos = _ROWS_ARG[cb]

        def traced(*args):
            rows = np.shape(args[pos])[0] if len(args) > pos else 0
            key = (tracer.op, cb)
            tracer.rows[key] = tracer.rows.get(key, 0) + rows
            if any(tracer.spans[i][0] in BATCH_FUNCS for i in tracer.stack):
                tracer.radial_rows[tracer.op] = tracer.radial_rows.get(tracer.op, 0) + rows
            idx = tracer._enter(name)
            try:
                return fn(*args)
            finally:
                tracer._exit(idx)

        traced._traced = True
        return traced

    # -- reports -------------------------------------------------------------

    def self_times(self):
        """Per span: duration and self time, both net of ``pauses``."""
        dur = np.array([s[2] - s[1] for s in self.spans])
        own = dur.copy()
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                own[s[3]] -= d
        if self.spans and self.pauses:
            start = np.array([s[1] for s in self.spans])
            end = np.array([s[2] for s in self.spans])
            for p0, p1 in self.pauses:
                inside = np.flatnonzero((start <= p0) & (end >= p1))
                if inside.size:
                    dur[inside] -= p1 - p0
                    own[inside[np.argmax(start[inside])]] -= p1 - p0
        return dur.tolist(), own.tolist()

    def summary(self, op=None):
        """Counts and times per layer, over all ops or one op."""
        dur, own = self.self_times()
        keep = [op is None or s[4] == op for s in self.spans]

        def total(pred, values):
            return sum(v for s, v, k in zip(self.spans, values, keep) if k and pred(s[0]))

        def count(name):
            return sum(1 for s, k in zip(self.spans, keep) if k and s[0] == name)

        top = [s[3] < 0 or not self.spans[s[3]][0].startswith("radial.") for s in self.spans]
        batches = [b for b in self.batches if keep[b[0]]]
        parents = [self.spans[self.spans[b[0]][3]][0] if self.spans[b[0]][3] >= 0 else ""
                   for b in batches]
        callback_rows = {cb: sum(n for (o, c), n in self.rows.items()
                                 if c == cb and op in (None, o)) for cb in CALLBACKS}
        radial_rows = sum(n for o, n in self.radial_rows.items() if op in (None, o))
        ray_constraints = sum(b[1] * b[2] for b in batches)
        return {
            "radial.batches": len(batches),
            "radial.value_batches": sum(p == "estimates.prob_value" for p in parents),
            "radial.grad_batches": sum(p.startswith("estimates.prob_gradient") for p in parents),
            "radial.repeat_batches": sum(b[3] for b in batches),
            "radial.rays": sum(b[1] for b in batches),
            "radial.s": sum(d for s, d, k, t in zip(self.spans, dur, keep, top)
                            if k and t and s[0].startswith("radial.")),
            "radial.self_s": total(lambda n: n.startswith("radial."), own),
            "radial.h_rows_per_ray_constraint":
                radial_rows / ray_constraints if ray_constraints else 0.0,
            "oracles.eval_g_calls": count("oracles.eval_g"),
            "oracles.eval_g_rows": callback_rows["eval_g"],
            "oracles.grad_rows": callback_rows["grad_x_g"] + callback_rows["grad_z_g"],
            "oracles.project_rows": callback_rows["project"],
            "oracles.callback_s": total(lambda n: n in CALLBACK_SPANS, dur),
            "gaussian.sample_sphere_s": total(lambda n: n == "gaussian.sample_sphere", dur),
            "gaussian.chi_s": total(lambda n: n in ("gaussian.chi_cdf", "gaussian.chi_pdf"), dur),
            "estimates.value_calls": count("estimates.prob_value"),
            "estimates.grad_calls": count("estimates.prob_gradient")
                                    + count("estimates.prob_gradient_enlarged"),
            "estimates.self_s": total(lambda n: n.startswith("estimates."), own),
            "solver.self_s": total(lambda n: n.startswith("solver."), own),
            "cli.calls": count("cli.main"),
            "cli.self_s": total(lambda n: n.startswith("cli."), own),
        }

    def write(self, path):
        """Write spans as JSON lines: name, start, end, parent, op."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[0], round(s[1] - t0, 9), round(s[2] - t0, 9),
                                     s[3], s[4]]) + "\n")
