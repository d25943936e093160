"""In-memory span tracer for the benchmark's traced run.

The package's modules look their collaborators up as module globals at
call time, so replacing an attribute on the module that makes the call is
enough to see every call through it.  Wrappers live only in this file and
only for the duration of an `instrument` block; the package is never
edited.  Two import details decide where a wrapper must sit:

* `skyrme_dyon.observables` as a package attribute is the *function*
  `observables`; the module is reached through `importlib`.
* `verify` (like `cli`) binds names at import with `from .x import y`, so
  wrapping the defining module does not reach its calls: each wrapper sits
  on the module that makes the call.  The benchmark does not call `cli`,
  so `cli` needs none.

A span records name, start, end, parent span and point id.  A layer's
self time is its span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "point", "info")

    def __init__(self, name, parent, point):
        self.name = name
        self.parent = parent
        self.point = point
        self.start = 0.0
        self.end = 0.0
        self.info = None


class Tracer:
    """Collects spans; `point` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.point = None
        self._stack: list[int] = []

    def wrap(self, fn, name, info=None):
        """Return fn wrapped in a span.

        name is a span name or a callable (args) -> name; info, when given,
        is a callable (args, result) -> dict of counts stored on the span.
        """
        tracer = self

        def traced(*args, **kwargs):
            span = Span(name if isinstance(name, str) else name(args), tracer._stack[-1] if tracer._stack else -1, tracer.point)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def by_point(self):
        """{point: {name: [calls, self_seconds]}} plus {point: [span, ...]}."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        layers: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        spans: dict = defaultdict(list)
        for i, span in enumerate(self.spans):
            entry = layers[span.point][span.name]
            entry[0] += 1
            entry[1] += span.end - span.start - child_time[i]
            spans[span.point].append(span)
        return layers, spans


def _band_name(args):
    # solve_banded((l, u), ab, b): the Newton system is (5, 5), the flow
    # preconditioner (1, 1)
    return "solver.lu" if tuple(args[0]) == (5, 5) else "solver.flow.precond"


def _band_info(args, result):
    return {"bytes": args[1].nbytes}


def _report_iters(args, result):
    return {"iters": result[1].iterations}


def _legs(args, result):
    return {"legs": len(result[1].continuation_trace)}


def patch_table(sd_modules):
    """(module, attribute, span name, info) for every wrapped call site."""
    solver = sd_modules["solver"]
    verify = sd_modules["verify"]
    obs = sd_modules["observables"]
    io = sd_modules["io"]
    grid = sd_modules["grid"]
    return [
        (solver, "residuals", "model.residuals", None),
        (solver, "_jacobian_banded", "solver.jacobian", None),
        (solver, "solve_banded", _band_name, _band_info),
        (solver, "solve_inner_g", "inner.solve_inner_g", None),
        (solver, "action_breakdown", "model.action_breakdown", None),
        (solver, "newton_solve", "solver.newton_solve", _report_iters),
        (solver, "flow_solve", "solver.flow_solve", _report_iters),
        (solver, "_flow_reactions", "solver.flow.reactions", None),
        (solver, "initial_guess", "solver.initial_guess", None),
        (solver, "continuation_solve", "solver.continuation_solve", _legs),
        (verify, "run_suite", "verify.run_suite", None),
        (verify, "residuals", "model.residuals", None),
        (verify, "action_breakdown", "model.action_breakdown", None),
        (verify, "solve_inner_g", "inner.solve_inner_g", None),
        (verify, "constraint_residual", "inner.constraint_residual", None),
        (verify, "fit_decay_rate", "observables.fit_decay_rate", None),
        (verify, "tail_constants", "observables.tail_constants", None),
        (verify, "skyrme_charge_numeric", "observables.skyrme_charge_numeric", None),
        (verify, "electric_charge", "observables.electric_charge", None),
        (obs, "observables", "observables.observables", None),
        (obs, "fit_decay_rate", "observables.fit_decay_rate", None),
        (obs, "tail_constants", "observables.tail_constants", None),
        (obs, "skyrme_charge_numeric", "observables.skyrme_charge_numeric", None),
        (io, "write_profile_csv", "io.write_profile_csv", None),
        (io, "read_profile_csv", "io.read_profile_csv", None),
        (grid, "build_grid", "grid.build_grid", None),
    ]


def package_modules():
    names = ("grid", "model", "inner", "solver", "observables", "verify", "io")
    return {n: importlib.import_module(f"skyrme_dyon.{n}") for n in names}


@contextmanager
def instrument(tracer: Tracer, sd_modules):
    """Wrap every call site in `patch_table`; restore the originals on exit."""
    saved = []
    try:
        for module, attr, name, info in patch_table(sd_modules):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, info))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
