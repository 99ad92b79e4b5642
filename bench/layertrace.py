"""Per-layer tracing for the benchmark, done from outside the package.

``Tracer.install`` wraps every public function of each losscomp module
(the layers) and swaps the wrapper into every module attribute bound to
that function: the name a caller looks up, such as
``compensation.estimate_element`` or ``homodyne.oscillator.evaluate_pattern``.
``Tracer.uninstall`` puts the originals back and reports whether any
wrapper is left, so untraced passes measure unwrapped code.

Spans are kept in memory as ``[name, parent, duration, child_time]``.  A
span's self time is its duration minus the time of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("fock_core", "loss_channel", "homodyne", "oscillator",
          "direct_detection", "compensation", "experiments")

# spans the per-layer metrics read; a refactor that removes one shows up
# in the report as a missing hook, not as a silent zero
HOOKS = ("oscillator.evaluate_pattern", "oscillator.tables_for",
         "homodyne.estimate_element", "homodyne.sample_quadratures",
         "loss_channel.apply_loss", "loss_channel.inverse_coefficient",
         "compensation.convergence_scan", "compensation.measure_ray",
         "compensation.error_vs_eta", "direct_detection.sample_counts",
         "direct_detection.estimate_probabilities", "fock_core.StateSpec.build")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_kernel_points(tracer, duration, args, kwargs, result):
    tracer.counters["kernel_points"] += np.size(_arg(args, kwargs, 2, "x"))


def _count_table_build(tracer, duration, args, kwargs, result):
    # tables_for hands back the same object until it has to grow
    if result is not tracer.last_tables:
        tracer.last_tables = result
        tracer.counters["table_builds"] += 1
        tracer.counters["table_build_s"] += duration
        tracer.counters["table_max_index"] = max(
            tracer.counters["table_max_index"], getattr(result, "max_index", 0))


def _count_samples(tracer, duration, args, kwargs, result):
    rho = _arg(args, kwargs, 0, "rho")
    if rho.quadrature_law is not None:
        path = "gaussian"
    elif np.all(np.abs(np.triu(rho.elements, 1)) < 1e-12):
        path = "inverse_cdf"
    else:
        path = "rejection"
    tracer.counters[f"sample_{path}_s"] += duration
    tracer.counters["samples_drawn"] += _arg(args, kwargs, 1, "n")


PROBES = {
    "oscillator.evaluate_pattern": _count_kernel_points,
    "oscillator.tables_for": _count_table_build,
    "homodyne.sample_quadratures": _count_samples,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.last_tables = None   # kept across passes: a warm pass builds nothing
        self.hooked = set()
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    def _wrap(self, span, fn):
        probe = PROBES.get(span)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = [span, parent, 0.0, 0.0]
            spans.append(record)
            stack.append(record)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock() - start
                stack.pop()
                if parent is not None:
                    parent[3] += record[2]
            if probe is not None:
                probe(self, record[2], args, kwargs, result)
            return result

        wrapper.bench_span = span
        self.hooked.add(span)
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, extra=()):
        """Wrap the layers; ``extra`` adds ``(owner, attr, span)`` triples."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"losscomp.{layer}")
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        spec = importlib.import_module("losscomp.fock_core").StateSpec
        self._patch(spec, "build", self._wrap("fock_core.StateSpec.build", spec.build))
        for owner, attr, span in extra:
            self._patch(owner, attr, self._wrap(span, getattr(owner, attr)))

    def uninstall(self, extra_owners=()) -> bool:
        """Restore every patched attribute; True when no wrapper is left."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        owners = [*_package_modules(),
                  importlib.import_module("losscomp.fock_core").StateSpec,
                  *extra_owners]
        return not any(hasattr(value, "bench_span")
                       for owner in owners for value in list(vars(owner).values()))

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        build_s = 0.0
        for name, parent, duration, child in self.spans:
            calls[name] += 1
            total[name] += duration
            own[name] += duration - child
            if name.startswith("fock_core.") and (
                    parent is None or not parent[0].startswith("fock_core.")):
                build_s += duration
        c = self.counters
        points = c["kernel_points"]
        return {
            "oscillator.evaluate_pattern_calls": calls["oscillator.evaluate_pattern"],
            "oscillator.evaluate_pattern_s": total["oscillator.evaluate_pattern"],
            "oscillator.kernel_points": points,
            "oscillator.ns_per_kernel_point":
                1e9 * total["oscillator.evaluate_pattern"] / points if points else 0.0,
            "oscillator.table_builds": c["table_builds"],
            "oscillator.table_build_s": c["table_build_s"],
            "oscillator.table_max_index": c["table_max_index"],
            "homodyne.estimate_element_calls": calls["homodyne.estimate_element"],
            "homodyne.estimate_element_self_s": own["homodyne.estimate_element"],
            "homodyne.sample_gaussian_s": c["sample_gaussian_s"],
            "homodyne.sample_inverse_cdf_s": c["sample_inverse_cdf_s"],
            "homodyne.sample_rejection_s": c["sample_rejection_s"],
            "homodyne.samples_drawn": c["samples_drawn"],
            "loss_channel.apply_loss_calls": calls["loss_channel.apply_loss"],
            "loss_channel.apply_loss_s": total["loss_channel.apply_loss"],
            "loss_channel.inverse_coefficient_calls":
                calls["loss_channel.inverse_coefficient"],
            "loss_channel.inverse_coefficient_s": total["loss_channel.inverse_coefficient"],
            "compensation.convergence_scan_calls": calls["compensation.convergence_scan"],
            "compensation.scan_self_s": own["compensation.convergence_scan"],
            "compensation.measure_ray_self_s": own["compensation.measure_ray"],
            "compensation.error_vs_eta_s": total["compensation.error_vs_eta"],
            "direct_detection.sample_counts_s": total["direct_detection.sample_counts"],
            "direct_detection.estimate_probabilities_s":
                total["direct_detection.estimate_probabilities"],
            "fock_core.build_s": build_s,
            "experiments.run_self_s": sum(
                v for name, v in own.items() if name.startswith("experiments.")),
        }

    def span_summary(self) -> dict:
        """``{span: [calls, total_s, self_s]}`` of the spans since the last reset."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, _, duration, child in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child
        return dict(sorted(out.items()))


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if name == "losscomp" or name.startswith("losscomp.")]

