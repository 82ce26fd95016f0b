"""In-memory span tracer wrapped around oscnet's public functions.

The tracer patches each listed function in every ``oscnet`` namespace that
binds it (the defining module and each module that imported it by name), so a
call is recorded whichever module makes it.  Spans hold name, start, end,
parent span index and workload id; they stay in memory until the run ends.
Self time is a span's duration minus the time covered by its direct children
(calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, attribute path) of every traced public function.
TARGETS = (
    ("cli", "parse_config"),
    ("cli", "run_config"),
    ("cli", "run_sweep"),
    ("network", "normal_modes"),
    ("network", "dissipative_matrix"),
    ("reservoirs", "rates_distinct"),
    ("stationary", "stationary_width"),
    ("stationary", "solve_pi_vec"),
    ("propagation", "build_model"),
    ("propagation", "Propagator.bundle"),
    ("propagation", "rotate_frame"),
    ("propagation", "transition_matrix"),
    ("states", "coherent_superposition"),
    ("phasespace", "wigner_grid"),
    ("phasespace", "char_function"),
    ("phasespace", "moments"),
    ("metrics", "decoherence_report"),
    ("metrics", "interference_decay_time"),
    ("metrics", "linear_entropy"),
    ("oracle", "evolve_master"),
    ("oracle", "oracle_char"),
    ("oracle", "density_from_coherent"),
    ("oracle", "expect_number_matrix"),
)

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr in TARGETS)

# Spans whose tracemalloc peak is recorded (numpy reports its buffers to it).
MEMORY_SPANS = ("phasespace.wigner_grid", "metrics.linear_entropy")

# Spans that must fire at least once on each workload.  A function imported by
# name into another module and missed by the patching would leave a gap here.
_MODEL_SPANS = (
    "cli.parse_config",
    "network.normal_modes",
    "network.dissipative_matrix",
    "reservoirs.rates_distinct",
    "stationary.stationary_width",
    "propagation.build_model",
    "propagation.Propagator.bundle",
    "propagation.rotate_frame",
    "propagation.transition_matrix",
    "states.coherent_superposition",
)
_REPORT_SPANS = ("metrics.decoherence_report", "metrics.interference_decay_time")
EXPECTED_SPANS = {
    "big_network": _MODEL_SPANS + _REPORT_SPANS + ("cli.run_config", "metrics.linear_entropy"),
    "ring_wigner": _MODEL_SPANS
    + _REPORT_SPANS
    + ("cli.run_config", "metrics.linear_entropy", "phasespace.wigner_grid"),
    "oracle_check": _MODEL_SPANS
    + (
        "cli.run_config",
        "metrics.linear_entropy",
        "phasespace.char_function",
        "phasespace.moments",
        "oracle.evolve_master",
        "oracle.oracle_char",
        "oracle.density_from_coherent",
        "oracle.expect_number_matrix",
    ),
    "size_sweep": _MODEL_SPANS + _REPORT_SPANS + ("cli.run_sweep",),
}

# Counts computed from call arguments (not measured), summed over calls.
COUNTED_SPANS = (
    "reservoirs.rates_distinct",
    "phasespace.wigner_grid",
    "metrics.linear_entropy",
    "oracle.density_from_coherent",
)
COMPUTED_COUNTS = (
    "reservoirs.rates_distinct.terms",
    "phasespace.wigner_grid.pair_terms",
    "metrics.linear_entropy.kernel_terms",
    "oracle.dim",
)


def _n_components(state) -> int:
    return sum(len(branch.components) for branch in state.branches)


def _count_terms(name, arguments, counts):
    """Add the work counts a call implies, computed from its bound arguments."""
    if name == "reservoirs.rates_distinct":
        counts["reservoirs.rates_distinct.terms"] += arguments["modes"].frequencies.size ** 4
    elif name == "phasespace.wigner_grid":
        state, points = arguments["state"], arguments["points"]
        grid = points ** (2 * len(arguments["ranges"]))
        counts["phasespace.wigner_grid.pair_terms"] += grid * _n_components(state) ** 2
    elif name == "metrics.linear_entropy":
        state = arguments["state"]
        counts["metrics.linear_entropy.kernel_terms"] += _n_components(state) ** 4 * state.n_modes
    elif name == "oracle.density_from_coherent":
        counts["oracle.dim"] = max(counts["oracle.dim"], arguments["space"].dim)


class Tracer:
    """Records one span per wrapped call; owns the patches it installs."""

    def __init__(self, workload_id: str):
        self.workload_id = workload_id
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self.peak_bytes = defaultdict(int)
        self._stack = []
        self._patches = []  # (namespace, attribute, original)

    def _wrap(self, name, fn):
        memory = name in MEMORY_SPANS
        signature = inspect.signature(fn) if name in COUNTED_SPANS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is not None:
                _count_terms(name, signature.bind(*args, **kwargs).arguments, self.counts)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            started = memory and not tracemalloc.is_tracing()
            if memory:
                if started:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                if memory:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    self.peak_bytes[name] = max(self.peak_bytes[name], peak)
                    if started:
                        tracemalloc.stop()
                self._stack.pop()
                span[2] = time.perf_counter()

        return traced

    def install(self):
        """Wrap every target in each oscnet namespace that binds it."""
        namespaces = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "oscnet" or key.startswith("oscnet."))
        ]
        for module_name, attr in TARGETS:
            module = importlib.import_module(f"oscnet.{module_name}")
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, original, wrapper)

    def _patch(self, namespace, key, original, wrapper):
        setattr(namespace, key, wrapper)
        self._patches.append((namespace, key, original))

    def uninstall(self):
        for namespace, key, original in reversed(self._patches):
            setattr(namespace, key, original)
        self._patches.clear()

    def layer_metrics(self) -> dict:
        """Per-function calls, self and total seconds, plus the named extras."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = 0
            metrics[f"{name}.self_s"] = 0.0
            metrics[f"{name}.total_s"] = 0.0
        # Nested calls of one function (none today) would count twice in total_s.
        for i, (name, start, end, _) in enumerate(self.spans):
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.total_s"] += end - start
            metrics[f"{name}.self_s"] += end - start - child_time[i]
        for name in MEMORY_SPANS:
            metrics[f"{name}.peak_mb"] = self.peak_bytes[name] / 2**20
        for name in COMPUTED_COUNTS:
            metrics[name] = int(self.counts[name])
        metrics["metrics.interference_decay_time.bundles"] = self._calls_under(
            "propagation.Propagator.bundle", "metrics.interference_decay_time"
        )
        return metrics

    def _calls_under(self, name, ancestor) -> int:
        count = 0
        for span_name, _, _, parent in self.spans:
            if span_name != name:
                continue
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count

    def missing_spans(self, workload: str) -> list:
        fired = {span[0] for span in self.spans}
        return [name for name in EXPECTED_SPANS[workload] if name not in fired]

    def write_spans(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent}
                handle.write(json.dumps({**record, "workload": self.workload_id}) + "\n")
