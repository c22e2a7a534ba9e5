"""Span tracer that times calls into covertpilot's public functions from outside.

:meth:`Tracer.install` rebinds each traced function in every covertpilot
module namespace that holds it (``covertpilot.montecarlo.derive_rng`` and
``covertpilot.channel.derive_rng`` are the same object, so both get the
wrapper), which catches calls made through any of those names.  Spans
(name, start, end, parent span, operation id) live in flat arrays until the
run ends; :meth:`Tracer.self_times` and :meth:`Tracer.write` read them once.
Nothing is wrapped unless :meth:`install` is called, so an untraced run
executes the package unmodified.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# One span per call of each of these; the key is ``module.function``.
TRACED = (
    "cli.main", "cli.sweep_cell_line",
    "rates.attack_feasibility",
    "detection.classify_regime", "detection.tau_eps", "detection.tau_dagger",
    "detection.analytic_error_probs",
    "pilot.mmse_estimate",
    "montecarlo.mc_comm_error_probs",
    "channel.derive_rng", "channel.gaussian_input", "channel.complex_normal",
)
SAMPLED = "channel.complex_normal"   # also counts the real normals it draws


class Tracer:
    """Holds the spans, and the count of normals drawn, of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.samples = 0
        self.current_op = -1
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object, object]] = []

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        sampled = qualname == SAMPLED
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0.0)
            if sampled:   # complex_normal(rng, size, var)
                self.samples += 2 * int(args[1] if len(args) > 1 else kwargs["size"])
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every traced function in all loaded covertpilot modules."""
        if not self._bindings:
            modules = [m for name, m in sys.modules.items()
                       if name == "covertpilot" or name.startswith("covertpilot.")]
            for qualname in TRACED:
                mod, attr = qualname.split(".")
                original = getattr(sys.modules[f"covertpilot.{mod}"], attr)
                wrapper = self._wrap(qualname, original)
                self._bindings += [(m, key, original, wrapper) for m in modules
                                   for key, value in vars(m).items()
                                   if value is original]
        for m, key, _, wrapper in self._bindings:
            setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, original, _ in self._bindings:
            setattr(m, key, original)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per traced function: (calls, self seconds).

        Self time is a span's duration minus the time its child spans cover
        (children of one span never overlap: calls are synchronous).
        """
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        cover = array("d", bytes(8 * len(dur)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                cover[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            self_s[nid] += dur[i] - cover[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def write(self, path: str) -> int:
        """Write all spans as gzipped CSV (times in microseconds); returns the count."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("op,span,parent,name,start_us,end_us\n")
            fh.writelines(
                f"{o},{i},{p},{names[n]},{(s - t0) * 1e6:.3f},{(e - t0) * 1e6:.3f}\n"
                for i, (o, p, n, s, e) in enumerate(zip(
                    self.op, self.parent, self.name_id, self.start, self.end)))
        return len(self.start)
