"""Outside-in tracer: spans around the library's public functions.

The tracer replaces a function at the name its caller looks it up by, so
nothing inside the program changes. `scramble.evolve` and
`cliffordverify.evolve`, for example, are separate bindings of one function
and are wrapped separately; `mbl_cage_compare` imports `models.build_mbl`
when it runs, so that name is wrapped on the `models` module itself.

Spans and counters stay in memory until `Tracer.record()` hands them over
at the end of the run. `layer_metrics` turns a record into the per-layer
metrics: a span's self time is its duration minus the time its child spans
cover, and a layer's time is the sum of its spans' self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

_PKG = "scramblescope"

# (module, attribute, span name). The span name's prefix is the layer.
PARSE_BINDING = ("cli", "parse_config", "cli.parse")
BINDINGS = (
    PARSE_BINDING,
    ("cli", "run", "cli.run"),
    ("cli", "draw_disorder", "models.draw_disorder"),
    ("models", "build_tfim", "models.build"),
    ("models", "build_mfim", "models.build"),
    ("models", "build_mbl", "models.build"),
    ("models", "build_pxp", "models.build"),
    ("scramble", "make_propagator", "evolve.propagator"),
    ("cliffordverify", "make_propagator", "evolve.propagator"),
    ("scramble", "evolve", "evolve.evolve"),
    ("cliffordverify", "evolve", "evolve.evolve"),
    ("scramble", "partial_trace", "qhilbert.partial_trace"),
    ("cliffordverify", "partial_trace", "qhilbert.partial_trace"),
    ("scramble", "exact_chi2_pair", "scramble.chi2_exact"),
    ("cliffordverify", "exact_chi2_pair", "scramble.chi2_exact"),
    ("scramble", "holevo_chi", "infotheory.holevo"),
    ("scramble", "chi_q", "infotheory.chi_q"),
    ("cli", "exact_metric_grid", "scramble.orchestrate"),
    ("cli", "shadow_metric_curve", "scramble.orchestrate"),
    ("cli", "mbl_cage_compare", "scramble.orchestrate"),
    ("scramble", "sample_shadow_set", "shadows.sample"),
    ("scramble", "chi2_estimate_many", "shadows.estimate"),
    ("cli", "clifford_convergence_experiment", "cliffordverify.orchestrate"),
    ("cli", "summarize_convergence", "cliffordverify.orchestrate"),
    ("cliffordverify", "random_clifford_circuit", "cliffordverify.unitary"),
    ("cliffordverify", "purity_from_basis_sampling", "cliffordverify.purity"),
)


def _count_build(counters, call, result):
    counters["models.hamiltonian_dim"] = max(counters.get("models.hamiltonian_dim", 0), result.dim)


def _count_sample(counters, call, result):
    counters["shadows.snapshots"] = counters.get("shadows.snapshots", 0) + len(result)


def _count_estimate(counters, call, result):
    set1, set2, subsets, mom = call.args[:4]
    used = 2 * mom.n_batches * mom.batch_size
    counters["shadows.batched"] = counters.get("shadows.batched", 0) + used
    counters["shadows.offered"] = counters.get("shadows.offered", 0) + len(set1) + len(set2)
    counters["shadows.subset_estimates"] = counters.get("shadows.subset_estimates", 0) + len(result)
    clamped = 0
    for subset, est in zip(subsets, result):
        lo = 2.0 ** (-len(subset))
        p_mix = (est.purity1 + est.purity2 + 2.0 * est.overlap) / 4.0
        clamped += any(not lo <= p <= 1.0 for p in (est.purity1, est.purity2, p_mix))
    counters["shadows.clamped"] = counters.get("shadows.clamped", 0) + clamped


COUNT_HOOKS = {
    "models.build": _count_build,
    "shadows.sample": _count_sample,
    "shadows.estimate": _count_estimate,
}


class Tracer:
    """Records nested spans (name, start, end, parent index) and counters.

    Tracing must not change what the program does: a binding the program no
    longer has is skipped, and a counter hook that fails is recorded, not
    raised. Both are listed in the record under "problems".
    """

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.problems = []
        self._stack = []

    def install(self, bindings) -> None:
        for module, attr, name in bindings:
            try:
                mod = importlib.import_module(f"{_PKG}.{module}")
                fn = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.problems.append(f"no binding {module}.{attr}")
                continue
            setattr(mod, attr, self._wrap(fn, name))

    def _wrap(self, fn, name):
        hook = COUNT_HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.monotonic(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._stack.pop()
            if hook is not None:
                try:
                    hook(self.counters, signature.bind(*args, **kwargs), result)
                except Exception as exc:  # a counter must never break the run
                    self.problems.append(f"{name} counter: {exc!r}")
            return result

        return traced

    def record(self) -> dict:
        return {"spans": self.spans, "counters": self.counters, "problems": self.problems}


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# Per-layer time metrics: metric name -> span names whose self time it sums.
TIME_METRICS = {
    "models.build_s": ("models.build", "models.draw_disorder"),
    "evolve.propagator_s": ("evolve.propagator",),
    "evolve.evolve_s": ("evolve.evolve",),
    "qhilbert.partial_trace_s": ("qhilbert.partial_trace",),
    "scramble.chi2_exact_s": ("scramble.chi2_exact",),
    "scramble.self_s": ("scramble.orchestrate",),
    "infotheory.holevo_s": ("infotheory.holevo",),
    "infotheory.chi_q_s": ("infotheory.chi_q",),
    "shadows.sample_s": ("shadows.sample",),
    "shadows.estimate_s": ("shadows.estimate",),
    "cliffordverify.unitary_s": ("cliffordverify.unitary",),
    "cliffordverify.purity_s": ("cliffordverify.purity",),
    "cliffordverify.self_s": ("cliffordverify.orchestrate",),
    "cli.parse_s": ("cli.parse",),
    "cli.run_self_s": ("cli.run",),
}

# Per-layer call counts: metric name -> span names it counts. A span nested
# in a span of the same name (build_mfim calling build_tfim) counts once.
COUNT_METRICS = {
    "models.builds": ("models.build",),
    "evolve.eigensolves": ("evolve.propagator",),
    "evolve.evolve_calls": ("evolve.evolve",),
    "qhilbert.partial_traces": ("qhilbert.partial_trace",),
    "scramble.chi2_exact_calls": ("scramble.chi2_exact",),
    "infotheory.calls": ("infotheory.holevo", "infotheory.chi_q"),
    "cliffordverify.unitaries": ("cliffordverify.unitary",),
    "cliffordverify.purity_calls": ("cliffordverify.purity",),
}


def layer_metrics(record: dict) -> dict:
    """Per-layer times (s), counts and ratios from one traced run's record."""
    spans, counters = record["spans"], record["counters"]
    own = self_times(spans)
    out = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = sum(s for span, s in zip(spans, own) if span[0] in names)
    for metric, names in COUNT_METRICS.items():
        out[metric] = sum(
            1
            for name, _, _, parent in spans
            if name in names and (parent < 0 or spans[parent][0] != name)
        )
    out["models.hamiltonian_dim"] = counters.get("models.hamiltonian_dim", 0)
    for key in ("shadows.snapshots", "shadows.subset_estimates", "shadows.clamped"):
        out[key] = counters.get(key, 0)
    offered = counters.get("shadows.offered", 0)
    # Undefined when no shadows were sampled; it then reads 0.
    out["shadows.snapshots_used_ratio"] = counters.get("shadows.batched", 0) / offered if offered else 0.0
    return out
