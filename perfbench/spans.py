"""In-memory spans around homlab's public functions, and the per-module
metrics derived from them.

``Tracer.install`` replaces every public function of the traced modules by a
wrapper that records a span ``<module>.<function>`` (start, end, parent).
Several names are imported by name into other modules (``corrector`` imports
``poisson_solve``, ``diagnostics`` imports ``ball_average``, ``ensemble``
imports ``growth_profile``), so the wrapper is set wherever the function is
looked up: on every ``homlab`` module attribute that holds it.
``Tracer.uninstall`` puts the originals back.  Nothing under ``src/`` is
edited.
"""

import functools
import inspect
import json
import sys
import time

import numpy as np

TRACED_MODULES = ("lattice", "randomfield", "kernels", "elliptic",
                  "corrector", "diagnostics", "sensitivity", "partition",
                  "ensemble")

# called once per lattice cell inside lattice_partition_labels; a span on
# each of those calls would cost more than the labelling itself
UNTRACED = {"partition.locate_cell"}


def _note_divform(args, kwargs, out):
    a, u = args[0], args[1]
    return {"cells": int(u.size), "bytes": int(a.nbytes + u.nbytes
                                                + out.nbytes)}


def _note_solve(args, kwargs, out):
    rep = out[1]
    return {"iterations": int(rep.iterations),
            "converged": bool(rep.converged)}


NOTES = {
    "kernels.divform_apply": _note_divform,
    "elliptic.solve_divform_rhs": _note_solve,
    "elliptic.solve_dirichlet_ball": _note_solve,
}


def public_functions(package):
    """{"<module>.<name>": function} for every function that a traced
    module defines under a name without a leading underscore, except those
    in UNTRACED."""
    found = {}
    for mod_name in TRACED_MODULES:
        mod = sys.modules[f"{package.__name__}.{mod_name}"]
        for name, obj in vars(mod).items():
            key = f"{mod_name}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and key not in UNTRACED):
                found[key] = obj
    return found


class Tracer:
    """Spans kept as lists [name, parent, start, end, note] in call order;
    ``parent`` is the index of the enclosing span or -1."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        targets = public_functions(self.package)
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in targets.items()}
        modules = [m for k, m in sys.modules.items()
                   if k == self.package.__name__
                   or k.startswith(self.package.__name__ + ".")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and callable(val):
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def mark(self):
        """Index of the next span, to split spans into phases."""
        return len(self.spans)

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=self.spans), fh)


class SpanStats:
    """Times and counts over the spans with index in [lo, hi)."""

    def __init__(self, spans, lo, hi):
        self.spans = spans
        self.rows = range(lo, hi)
        child = {}
        for k in self.rows:
            p = spans[k][1]
            if p >= lo:
                child[p] = child.get(p, 0.0) + spans[k][3] - spans[k][2]
        self.child_time = child

    def _dur(self, k):
        return self.spans[k][3] - self.spans[k][2]

    def _has_ancestor(self, k, pred):
        p = self.spans[k][1]
        while p >= 0:
            if pred(self.spans[p][0]):
                return True
            p = self.spans[p][1]
        return False

    def total(self, name):
        """Wall time of the outermost spans of ``name``."""
        return sum(self._dur(k) for k in self.rows
                   if self.spans[k][0] == name
                   and not self._has_ancestor(k, name.__eq__))

    def calls(self, name):
        return sum(1 for k in self.rows if self.spans[k][0] == name)

    def module_total(self, module):
        """Wall time of the spans of ``module`` not inside another of its
        spans."""
        prefix = module + "."
        return sum(self._dur(k) for k in self.rows
                   if self.spans[k][0].startswith(prefix)
                   and not self._has_ancestor(k, lambda n: n.startswith(
                       prefix)))

    def module_self(self, module):
        """Span time of ``module`` minus the time its child spans cover."""
        prefix = module + "."
        return sum(self._dur(k) - self.child_time.get(k, 0.0)
                   for k in self.rows if self.spans[k][0].startswith(prefix))

    def notes(self, name):
        return [self.spans[k][4] for k in self.rows
                if self.spans[k][0] == name]

    def calls_under(self, name, solver):
        """Calls of ``name`` whose nearest elliptic solve span is
        ``solver``."""
        count = 0
        for k in self.rows:
            if self.spans[k][0] != name:
                continue
            p = self.spans[k][1]
            while p >= 0 and not self.spans[p][0].startswith("elliptic."):
                p = self.spans[p][1]
            if p >= 0 and self.spans[p][0] == solver:
                count += 1
        return count

    def covered(self):
        """Time covered by top-level spans."""
        return sum(self._dur(k) for k in self.rows if self.spans[k][1] == -1)


def module_metrics(setup, timed, ops):
    """The per-module metrics: set-up work (partition, interaction sup)
    per set-up from ``setup``, everything else per operation from
    ``timed``, a SpanStats over ``ops`` operations."""
    per = 1.0 / ops
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    put("randomfield.sample_s", timed.module_total("randomfield") * per, "s")
    for fn in ("poisson_solve", "ball_mean_field", "ball_average"):
        put(f"lattice.{fn}_s", timed.total(f"lattice.{fn}") * per, "s")
        put(f"lattice.{fn}_calls", timed.calls(f"lattice.{fn}") * per,
            "count")
    apply_s = timed.total("kernels.divform_apply")
    notes = timed.notes("kernels.divform_apply")
    cells = sum(n["cells"] for n in notes)
    put("kernels.divform_apply_s", apply_s * per, "s")
    put("kernels.divform_apply_calls", len(notes) * per, "count")
    put("kernels.divform_apply_ns_per_cell",
        1e9 * apply_s / cells if cells else 0.0, "ns")
    put("kernels.divform_apply_bytes",
        np.mean([n["bytes"] for n in notes]) if notes else 0.0, "bytes")
    put("kernels.pair_interaction_sup_s",
        setup.total("kernels.pair_interaction_sup"), "s")

    torus = timed.notes("elliptic.solve_divform_rhs")
    ball = timed.notes("elliptic.solve_dirichlet_ball")
    put("elliptic.torus_solve_s",
        timed.total("elliptic.solve_divform_rhs") * per, "s")
    put("elliptic.torus_solves", len(torus) * per, "count")
    put("elliptic.torus_matvecs", timed.calls_under(
        "kernels.divform_apply", "elliptic.solve_divform_rhs") * per,
        "count")
    # BiCGStab solves report iterations = -1; only PCG counts are summed
    put("elliptic.torus_iterations",
        sum(n["iterations"] for n in torus if n["iterations"] >= 0) * per,
        "count")
    put("elliptic.ball_solve_s",
        timed.total("elliptic.solve_dirichlet_ball") * per, "s")
    put("elliptic.ball_solves", len(ball) * per, "count")
    put("elliptic.ball_iterations",
        sum(n["iterations"] for n in ball if n["iterations"] >= 0) * per,
        "count")
    put("elliptic.unconverged_solves",
        sum(not n["converged"] for n in torus + ball) * per, "count")
    put("elliptic.self_s", timed.module_self("elliptic") * per, "s")

    for fn in ("compute_corrector", "compute_flux_and_ahom", "compute_sigma"):
        put(f"corrector.{fn}_s", timed.total(f"corrector.{fn}") * per, "s")
    put("corrector.self_s", timed.module_self("corrector") * per, "s")

    for fn in ("growth_profile", "minimal_radius", "excess_decay_experiment",
               "excess"):
        put(f"diagnostics.{fn}_s", timed.total(f"diagnostics.{fn}") * per,
            "s")
    put("diagnostics.excess_calls", timed.calls("diagnostics.excess") * per,
        "count")
    put("diagnostics.self_s", timed.module_self("diagnostics") * per, "s")

    for fn in ("malliavin_derivative", "functional_value", "fd_check",
               "carre_du_champ"):
        put(f"sensitivity.{fn}_s", timed.total(f"sensitivity.{fn}") * per,
            "s")
    put("sensitivity.functional_value_calls",
        timed.calls("sensitivity.functional_value") * per, "count")

    for metric, fn in (("build_s", "build_partition"),
                       ("check_refinement_s", "check_refinement"),
                       ("interaction_sum_s", "interaction_sum"),
                       ("labels_s", "lattice_partition_labels")):
        put(f"partition.{metric}", setup.total(f"partition.{fn}"), "s")

    put("ensemble.self_s", timed.module_self("ensemble") * per, "s")
    put("ensemble.summarize_s", timed.total("ensemble.summarize") * per, "s")
    return m
