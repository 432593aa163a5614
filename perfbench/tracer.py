"""Tracing from outside the program: wrappers around sllab's public functions.

The wrappers live here, not in ``src/``.  A name is patched at every
import site: each loaded ``sllab`` module attribute that *is* the
original function is replaced, so ``from .dynamics import evolve`` in
``experiments`` and the re-export in ``sllab/__init__`` are both traced.
Spans (name, start, end, parent) are kept in memory; counts are kept
alongside.  :meth:`Tracer.uninstall` restores every patched attribute.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import weakref
from collections import Counter, defaultdict

FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                    "hfft", "ihfft")


def _arg(fn, args, kwargs, name):
    """Value of parameter ``name`` in a call to ``fn``, defaults applied."""
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self._live_bytes = 0

    # ------------------------------------------------------------ recording

    def traced(self, fn, name, hook=None):
        """Wrapper recording one span per call; ``name`` may be a callable
        of the call arguments.  ``hook(tracer, fn, args, kwargs, result,
        duration)`` adds counts after the call returns."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            span = [label, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, fn, args, kwargs, result, span[2] - span[1])
            return result

        return wrapper

    def counted(self, fn, name, points=False):
        """Wrapper counting calls, and with ``points`` the size of the
        first argument, with no span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if points:
                counts[name + ".points"] += int(getattr(args[0], "size", 0))
            return fn(*args, **kwargs)

        return wrapper

    def track_ensemble(self, ensemble):
        """Add a returned ensemble's positions to the live total until it
        is garbage-collected; keeps the peak."""
        nbytes = int(ensemble.positions.nbytes)
        self._live_bytes += nbytes
        self.counts["positions_peak_bytes"] = max(
            self.counts["positions_peak_bytes"], self._live_bytes)
        weakref.finalize(ensemble, self._release, nbytes)

    def _release(self, nbytes):
        self._live_bytes -= nbytes

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, original, replacement, extra_owners=()):
        """Replace ``original`` on every loaded sllab module that binds it
        (and on ``extra_owners``)."""
        owners = [m for n, m in sorted(sys.modules.items())
                  if (n == "sllab" or n.startswith("sllab.")) and m is not None]
        owners += list(extra_owners)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patch(owner, attr, replacement)

    def install(self):
        for module_name, fn_name, label, hook in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, fn_name)
            self.patch_everywhere(original,
                                  self.traced(original, label, hook))
        from sllab.trajectories import FrameInterpolator
        self._patch(FrameInterpolator, "velocity_at",
                    self.counted(FrameInterpolator.velocity_at,
                                 "trajectories.velocity_at"))
        for module_name in ("numpy.fft", "scipy.fft"):
            module = importlib.import_module(module_name)
            for fn_name in FFT_ENTRY_POINTS:
                original = getattr(module, fn_name, None)
                if original is None:
                    continue
                self.patch_everywhere(original,
                                      self.counted(original, "grid_field.fft",
                                                   points=True),
                                      extra_owners=[module])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self):
        return [(owner, attr) for owner, attr, _ in self._patches]

    # ------------------------------------------------------------ summaries

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time skips spans nested in a span of the same name, so
        recursion is not counted twice.  Self time is a span's duration
        minus its direct children's durations (children of one span never
        overlap: calls are single-threaded).
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                row["s"] += end - start
        return dict(out)

    def dump(self, path, extra=None):
        """Write spans and counts as JSON (names interned)."""
        import json

        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names,
               "spans": [[index[n], round(a, 7), round(b, 7), p]
                         for n, a, b, p in self.spans],
               "counts": dict(self.counts), **(extra or {})}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------- hooks


def _count(key, value_fn):
    def hook(tracer, fn, args, kwargs, result, duration):
        tracer.counts[key] += value_fn(fn, args, kwargs, result)
    return hook


def _evolve_hook(tracer, fn, args, kwargs, result, duration):
    cfg = _arg(fn, args, kwargs, "cfg")
    lam = "lam1" if cfg.params.lam == 1.0 else "lam_lt1"
    tracer.counts["dynamics.evolve.steps"] += cfg.steps
    tracer.counts[f"dynamics.evolve.{lam}.steps"] += cfg.steps
    tracer.counts[f"dynamics.evolve.{lam}.s"] += duration


def _ensemble_hook(prefix):
    def hook(tracer, fn, args, kwargs, result, duration):
        n, t1, _ = result.positions.shape
        tracer.counts[prefix + ".particle_steps"] += n * (t1 - 1)
        tracer.track_ensemble(result)
    return hook


def _evolve_pointer_steps(fn, args, kwargs, result):
    model = _arg(fn, args, kwargs, "model")
    dt = _arg(fn, args, kwargs, "dt")
    return round(model.t_coupling / dt) + round(model.t_settle / dt)


def _solve_lp_hook(tracer, fn, args, kwargs, result, duration):
    c = _arg(fn, args, kwargs, "c")
    rows = (len(_arg(fn, args, kwargs, "A_ub") or [])
            + len(_arg(fn, args, kwargs, "A_eq") or []))
    tracer.counts["contextuality.solve_lp.rows"] += rows
    tracer.counts["contextuality.solve_lp.cols"] += len(c)
    tracer.counts["contextuality.solve_lp.infeasible"] += (
        result.status == "infeasible")


def _file_bytes(fn, args, kwargs, result):
    return os.path.getsize(_arg(fn, args, kwargs, "path"))


def _experiment_name(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    return f"experiments.{cfg.experiment}"


# (module, function, span name, hook) for every traced public function.
LAYER_FUNCTIONS = [
    ("sllab.grid_field", "quantum_potential_from_abs",
     "grid_field.quantum_potential_from_abs", None),
    ("sllab.grid_field", "polar_decompose", "grid_field.polar_decompose",
     _count("grid_field.polar_decompose.points",
            lambda fn, a, k, r: _arg(fn, a, k, "psi").grid.size)),
    ("sllab.grid_field", "differentiate", "grid_field.differentiate", None),
    ("sllab.dynamics", "evolve", "dynamics.evolve", _evolve_hook),
    ("sllab.dynamics", "energy_expectation", "dynamics.energy_expectation",
     None),
    ("sllab.dynamics", "lambda_energy", "dynamics.lambda_energy", None),
    ("sllab.trajectories", "integrate_nelson",
     "trajectories.integrate_nelson",
     _ensemble_hook("trajectories.integrate_nelson")),
    ("sllab.trajectories", "integrate_bohmian",
     "trajectories.integrate_bohmian",
     _ensemble_hook("trajectories.integrate_bohmian")),
    ("sllab.trajectories", "velocity_field", "trajectories.velocity_field",
     None),
    ("sllab.trajectories", "interpolate_grid",
     "trajectories.interpolate_grid",
     _count("trajectories.interpolate_grid.points",
            lambda fn, a, k, r: len(r))),
    ("sllab.ensemble", "sample_density", "ensemble.sample_density",
     _count("ensemble.sample_density.samples", lambda fn, a, k, r: len(r))),
    ("sllab.ensemble", "chi2_against_target", "ensemble.chi2_against_target",
     None),
    ("sllab.ensemble", "relaxation_h_series", "ensemble.relaxation_h_series",
     None),
    ("sllab.measurement", "evolve_pointer", "measurement.evolve_pointer",
     _count("measurement.evolve_pointer.steps", _evolve_pointer_steps)),
    ("sllab.measurement", "run_measurement", "measurement.run_measurement",
     None),
    ("sllab.contextuality.simplex", "solve_lp", "contextuality.solve_lp",
     _solve_lp_hook),
    ("sllab.contextuality.analysis", "contextual_fraction",
     "contextuality.contextual_fraction",
     _count("contextuality.assignments",
            lambda fn, a, k, r: _arg(fn, a, k, "model")
            .scenario.n_global_assignments())),
    ("sllab.contextuality.analysis", "noncontextual_decompose",
     "contextuality.noncontextual_decompose", None),
    ("sllab.contextuality.analysis", "enumerate_global_sections",
     "contextuality.enumerate_global_sections", None),
    ("sllab.contextuality.analysis", "check_no_signalling",
     "contextuality.check_no_signalling", None),
    ("sllab.io_formats", "sha256_file", "io_formats.sha256_file",
     _count("io_formats.sha256_file.bytes", _file_bytes)),
    ("sllab.experiments", "run_experiment", _experiment_name, None),
] + [
    ("sllab.io_formats", name, "io_formats.write",
     _count("io_formats.write.bytes", _file_bytes))
    for name in ("write_slf1", "write_field_csv", "write_series_csv",
                 "write_trajectories_csv", "write_json")
]
