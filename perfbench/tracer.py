"""Per-layer tracing of phasekit from outside the program.

The tracer wraps every public function of each layer module (``phasekit.cli``,
``phasekit.scenario``, ...) at every module attribute that binds it, since
callers import by name: ``phasekit.scenario.eigen_propagate`` and
``phasekit.evolve.eigen_propagate`` get the same wrapper. The RK4 stepping
kernel is timed through the callable that ``phasekit.evolve.active_kernel``
returns. Nothing is added inside ``src/``; ``uninstall`` restores every
binding, so untraced runs execute the program unmodified.

Each wrapped call records a span: name, layer, start, end, parent span and
the op it belongs to. Spans stay in memory until the run ends. A span's
effective duration excludes the tracer's own bookkeeping and counting
(measured and subtracted), and its self time is that duration minus the
effective durations of its child spans.

A layer or function that does not exist (say a later change deletes
``kernels.py``) is skipped: its metrics are left out of the result.

Counts marked *computed* come from array shapes and the grid, so they repeat
exactly from run to run:

* ``evolve.rk4.substeps``: sum over grid intervals of
  ``max(1, int(span / dtau + 0.5))``, the kernel's own rule.
* ``evolve.rk4.matvecs``: 4 per substep.
* ``evolve.rk4.flops``: ``32*d*d + 50*d`` real flops per substep for state
  dimension ``d`` (four complex mat-vecs at ``8*d*d``, plus the vector updates
  of the RK4 stage sums).
* ``kernels.rk4.bytes``: ``64*d*d + 784*d`` bytes per substep (the complex
  matrix read once per mat-vec, each of the 49 complex vector operands of a
  numpy substep read or written once) plus ``16*d`` per output row.
* ``observe.state_elems``: rows x dim of the states argument of each
  outermost observe call (the 16-dim fermion embedding shows here).
* ``operators.matrix_elems``: entries of the matrices each outermost
  operators call returns.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "scenario", "presets", "evolve", "kernels", "observe",
          "operators", "hamiltonians", "fock", "verify")
PACKAGE = "phasekit"
KERNEL = "kernels.rk4"
STATE_PARAMS = ("states", "state", "trajectory")


class Span:
    __slots__ = ("name", "layer", "parent", "op", "start", "end", "excl0",
                 "excl1", "child", "outer", "outer_name", "counts")

    def __init__(self, name, layer, parent, op):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.child = 0.0
        self.counts = None

    @property
    def effective(self) -> float:
        return (self.end - self.start) - (self.excl1 - self.excl0)

    @property
    def self_time(self) -> float:
        return self.effective - self.child


# ---------------------------------------------------------------------------
# counting hooks: (fn, args, kwargs, result, span, tracer) -> dict of counts


def _argument(fn, args, kwargs, names):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    for name in names:
        if name in bound.arguments:
            return bound.arguments[name]
    raise KeyError(names)


def rk4_substeps(tau, dtau: float) -> int:
    spans = np.diff(np.asarray(tau, dtype=float))
    return int(np.maximum((spans / dtau + 0.5).astype(np.int64), 1).sum())


def _digest(states) -> str:
    return hashlib.sha1(np.ascontiguousarray(states).tobytes()).hexdigest()


def _propagation(fn, args, kwargs, result, span, tracer) -> dict:
    counts = {"states": int(result.states.size)}
    if tracer.depth["presets"]:
        counts["digest"] = _digest(result.states)
    return counts


def _rk4_propagate(fn, args, kwargs, result, span, tracer) -> dict:
    counts = _propagation(fn, args, kwargs, result, span, tracer)
    tau = _argument(fn, args, kwargs, ("tau_grid",))
    dtau = float(_argument(fn, args, kwargs, ("dtau",)))
    d = result.states.shape[1]
    substeps = rk4_substeps(tau, dtau)
    counts.update(substeps=substeps, matvecs=4 * substeps,
                  flops=substeps * (32 * d * d + 50 * d))
    return counts


def _kernel(fn, args, kwargs, result, span, tracer) -> dict:
    h, _, tau, dtau = args[:4]
    d = h.shape[0]
    substeps = rk4_substeps(tau, dtau)
    return {"substeps": substeps,
            "bytes": substeps * (64 * d * d + 784 * d) + 16 * d * len(tau)}


def _observe(fn, args, kwargs, result, span, tracer) -> dict:
    if not span.outer:
        return {}
    try:
        states = _argument(fn, args, kwargs, STATE_PARAMS)
    except KeyError:
        return {}
    states = getattr(states, "states", getattr(states, "amplitudes", states))
    return {"state_elems": int(np.asarray(states).size)}


def _matrix_elems(value) -> int:
    if isinstance(value, (tuple, list)):
        return sum(_matrix_elems(v) for v in value)
    entries = getattr(value, "entries", value)
    return int(entries.size) if isinstance(entries, np.ndarray) else 0


def _operators(fn, args, kwargs, result, span, tracer) -> dict:
    if not span.outer:
        return {}
    return {"matrix_elems": _matrix_elems(result)}


def _format_csv(fn, args, kwargs, result, span, tracer) -> dict:
    series = _argument(fn, args, kwargs, ("series",))
    return {"rows": len(series.tau_grid), "bytes": len(result.encode("utf-8"))}


def _write_csv(fn, args, kwargs, result, span, tracer) -> dict:
    return {"files": 1, "bytes": os.path.getsize(result)}


def _run_figure(fn, args, kwargs, result, span, tracer) -> dict:
    return {"scenarios": len(result)}


def _run_verification(fn, args, kwargs, result, span, tracer) -> dict:
    return {"checks": len(result.results),
            "passed": sum(1 for r in result.results if r.passed)}


NAME_HOOKS = {
    "scenario.format_csv": _format_csv,
    "scenario.write_csv": _write_csv,
    "presets.run_figure": _run_figure,
    "evolve.eigen_propagate": _propagation,
    "evolve.rk4_propagate": _rk4_propagate,
    "verify.run_verification": _run_verification,
    KERNEL: _kernel,
}
LAYER_HOOKS = {"observe": _observe, "operators": _operators}


# ---------------------------------------------------------------------------


class Tracer:
    """Wraps phasekit's public functions while installed and records spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.hook_errors = 0
        self.depth = defaultdict(int)
        self.name_depth = defaultdict(int)
        self._stack: list[Span] = []
        self._excluded = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self.layers: dict[str, object] = {}
        for layer in LAYERS:
            try:
                self.layers[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
        self.wrappers: dict[object, object] = {}
        self.names: set[str] = set()
        for layer, module in self.layers.items():
            if layer == "kernels":
                continue
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__ and obj not in self.wrappers):
                    name = f"{layer}.{attr}"
                    hook = NAME_HOOKS.get(name, LAYER_HOOKS.get(layer))
                    self.wrappers[obj] = self._wrap(obj, name, layer, hook)
                    self.names.add(name)
        evolve = self.layers.get("evolve")
        selector = getattr(evolve, "active_kernel", None)
        if callable(selector):
            self.wrappers[selector] = self._wrap_selector(selector)
            self.names.add(KERNEL)

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers at every phasekit module attribute that holds an
        original public function."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                try:
                    wrapper = self.wrappers.get(obj)
                except TypeError:  # unhashable attribute value
                    continue
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, hook):
        tracer = self
        clock = time.perf_counter
        stack = self._stack
        depth = self.depth
        name_depth = self.name_depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            span = Span(name, layer, stack[-1] if stack else None, tracer.op)
            span.outer = depth[layer] == 0
            span.outer_name = name_depth[name] == 0
            depth[layer] += 1
            name_depth[name] += 1
            stack.append(span)
            span.excl0 = tracer._excluded
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                span.excl1 = tracer._excluded
                stack.pop()
                depth[layer] -= 1
                name_depth[name] -= 1
                if span.parent is not None:
                    span.parent.child += span.effective
                tracer.spans.append(span)
            if hook is not None:
                try:
                    span.counts = hook(fn, args, kwargs, result, span, tracer)
                except Exception:  # a count must never break the program
                    tracer.hook_errors += 1
            tracer._excluded += (span.start - entered) + (clock() - span.end)
            return result

        return traced

    def _wrap_selector(self, selector):
        wrap = self._wrap

        @functools.wraps(selector)
        def traced_selector(*args, **kwargs):
            return wrap(selector(*args, **kwargs), KERNEL, "kernels", _kernel)

        return traced_selector


# ---------------------------------------------------------------------------
# metrics


class Totals:
    """Sums over the traced spans, kept per layer and per function."""

    def __init__(self, spans: list[Span], rounds: int):
        self.layer_calls = defaultdict(int)
        self.layer_busy = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.name_calls = defaultdict(int)
        self.name_busy = defaultdict(float)
        self.name_self = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(float))
        digests = defaultdict(set)
        self.propagations = 0
        for s in spans:
            if s.op is None:
                continue
            self.layer_calls[s.layer] += 1
            self.name_calls[s.name] += 1
            self.layer_self[s.layer] += s.self_time
            self.name_self[s.name] += s.self_time
            if s.outer:
                self.layer_busy[s.layer] += s.effective
            if s.outer_name:
                self.name_busy[s.name] += s.effective
            for key, value in (s.counts or {}).items():
                if key == "digest":
                    digests[s.op[0]].add(value)
                    self.propagations += 1
                else:
                    self.counts[s.name][key] += value
        self.distinct = sum(len(d) for d in digests.values()) / rounds
        self.propagations /= rounds
        for table in (self.layer_calls, self.layer_busy, self.layer_self,
                      self.name_calls, self.name_busy, self.name_self):
            for key in table:
                table[key] /= rounds
        for table in self.counts.values():
            for key in table:
                table[key] /= rounds

    def count(self, name: str, key: str) -> float:
        return self.counts[name][key]

    def layer_count(self, layer: str, key: str) -> float:
        return sum(c[key] for n, c in self.counts.items() if n.split(".")[0] == layer)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# (metric, unit, better, what must exist, value from per-round Totals). Counts
# divide exactly by the number of traced rounds: every round is the same work.
METRICS = (
    ("cli.calls", "count", "lower", "cli", lambda t: t.layer_calls["cli"]),
    ("cli.self_s", "s", "lower", "cli", lambda t: t.layer_self["cli"]),
    ("scenario.parse_config.busy_s", "s", "lower", "scenario.parse_config",
     lambda t: t.name_busy["scenario.parse_config"]),
    ("scenario.run_scenario.self_s", "s", "lower", "scenario.run_scenario",
     lambda t: t.name_self["scenario.run_scenario"]),
    ("scenario.format_csv.busy_s", "s", "lower", "scenario.format_csv",
     lambda t: t.name_busy["scenario.format_csv"]),
    ("scenario.format_csv.rows", "count", "lower", "scenario.format_csv",
     lambda t: t.count("scenario.format_csv", "rows")),
    ("scenario.format_csv.bytes", "bytes", "lower", "scenario.format_csv",
     lambda t: t.count("scenario.format_csv", "bytes")),
    ("scenario.write_csv.self_s", "s", "lower", "scenario.write_csv",
     lambda t: t.name_self["scenario.write_csv"]),
    ("scenario.write_csv.files", "count", "lower", "scenario.write_csv",
     lambda t: t.count("scenario.write_csv", "files")),
    ("scenario.write_csv.bytes", "bytes", "lower", "scenario.write_csv",
     lambda t: t.count("scenario.write_csv", "bytes")),
    ("presets.run_figure.self_s", "s", "lower", "presets.run_figure",
     lambda t: t.name_self["presets.run_figure"]),
    ("presets.scenarios", "count", "lower", "presets.run_figure",
     lambda t: t.count("presets.run_figure", "scenarios")),
    ("presets.distinct_trajectories", "count", "lower", "presets.run_figure",
     lambda t: t.distinct),
    ("presets.trajectory_reuse", "ratio", "higher", "presets.run_figure",
     lambda t: _ratio(t.distinct, t.propagations)),
    ("evolve.eigen.calls", "count", "lower", "evolve.eigen_propagate",
     lambda t: t.name_calls["evolve.eigen_propagate"]),
    ("evolve.eigen.busy_s", "s", "lower", "evolve.eigen_propagate",
     lambda t: t.name_busy["evolve.eigen_propagate"]),
    ("evolve.eigen.states", "count", "lower", "evolve.eigen_propagate",
     lambda t: t.count("evolve.eigen_propagate", "states")),
    ("evolve.rk4.calls", "count", "lower", "evolve.rk4_propagate",
     lambda t: t.name_calls["evolve.rk4_propagate"]),
    ("evolve.rk4.self_s", "s", "lower", "evolve.rk4_propagate",
     lambda t: t.name_self["evolve.rk4_propagate"]),
    ("evolve.rk4.substeps", "count", "lower", "evolve.rk4_propagate",
     lambda t: t.count("evolve.rk4_propagate", "substeps")),
    ("evolve.rk4.matvecs", "count", "lower", "evolve.rk4_propagate",
     lambda t: t.count("evolve.rk4_propagate", "matvecs")),
    ("evolve.rk4.flops", "count", "lower", "evolve.rk4_propagate",
     lambda t: t.count("evolve.rk4_propagate", "flops")),
    ("kernels.rk4.busy_s", "s", "lower", KERNEL, lambda t: t.name_busy[KERNEL]),
    ("kernels.rk4.bytes", "bytes", "lower", KERNEL, lambda t: t.count(KERNEL, "bytes")),
    ("kernels.rk4.substeps_per_s", "1/s", "higher", KERNEL,
     lambda t: _ratio(t.count(KERNEL, "substeps"), t.name_busy[KERNEL])),
    ("observe.calls", "count", "lower", "observe", lambda t: t.layer_calls["observe"]),
    ("observe.busy_s", "s", "lower", "observe", lambda t: t.layer_busy["observe"]),
    ("observe.state_elems", "count", "lower", "observe",
     lambda t: t.layer_count("observe", "state_elems")),
    ("observe.embed.calls", "count", "lower", "observe.embedded_fermion_states",
     lambda t: t.name_calls["observe.embedded_fermion_states"]),
    ("operators.calls", "count", "lower", "operators",
     lambda t: t.layer_calls["operators"]),
    ("operators.busy_s", "s", "lower", "operators", lambda t: t.layer_busy["operators"]),
    ("operators.matrix_elems", "count", "lower", "operators",
     lambda t: t.layer_count("operators", "matrix_elems")),
    ("hamiltonians.calls", "count", "lower", "hamiltonians",
     lambda t: t.layer_calls["hamiltonians"]),
    ("hamiltonians.busy_s", "s", "lower", "hamiltonians",
     lambda t: t.layer_busy["hamiltonians"]),
    ("fock.calls", "count", "lower", "fock", lambda t: t.layer_calls["fock"]),
    ("fock.busy_s", "s", "lower", "fock", lambda t: t.layer_busy["fock"]),
    ("verify.checks", "count", "higher", "verify.run_verification",
     lambda t: t.count("verify.run_verification", "checks")),
    ("verify.checks_passed", "count", "higher", "verify.run_verification",
     lambda t: t.count("verify.run_verification", "passed")),
    ("verify.self_s", "s", "lower", "verify", lambda t: t.layer_self["verify"]),
)
# Added by the runner, not from spans: the traced round's summed op latency
# and the tracing overhead per round.
RUNNER_METRICS = (
    ("trace.round_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round values of every metric whose layer or function exists."""
    totals = Totals(tracer.spans, rounds)
    present = set(tracer.layers) | tracer.names
    return {name: value(totals) for name, _, _, needs, value in METRICS if needs in present}


def layer_shares(tracer: Tracer, rounds: int) -> list[tuple[str, float, float, int]]:
    """(layer, self seconds, busy seconds, calls) per round, for the report."""
    totals = Totals(tracer.spans, rounds)
    return [(layer, totals.layer_self[layer], totals.layer_busy[layer],
             totals.layer_calls[layer]) for layer in LAYERS if layer in tracer.layers]
