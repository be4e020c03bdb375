"""Span tracer for holderlab, installed from outside the package.

Each traced function is replaced in every holderlab module that binds it,
because the modules import by name: ``experiments`` holds its own
references to ``convolve_brownian`` or ``audit_conditions``, ``conditions``
to ``symbol``, ``convolution`` to ``sample_path`` and ``cli`` to its own
copies of the convolution, moments and campanato functions.  Patching only
the defining module would silently miss those calls.

Spans (name, start, end, parent, run id) are kept in memory; counters are
added up per run id at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time


# Counters, added up at the span boundary from the traced call's result.
def count_symbol(tracer, sym):
    tracer.add("kernels.symbol.points", int(sym.size))
    tracer.add("kernels.symbol.computed_bytes", int(sym.nbytes))


def count_path(tracer, path):
    if path.times is not None:
        tracer.add("noise.poisson_events", int(path.times.size))


def count_ensemble(tracer, ens):
    tracer.add("convolution.realizations", int(ens.values.shape[0]))
    tracer.add("convolution.saved_times", int(ens.time_indices.size))
    tracer.add("convolution.ensemble_bytes", int(ens.values.nbytes))


def count_oracle(tracer, moments):
    tracer.add("convolution.oracle_pairs", int(moments.size))


def count_pairs(tracer, field):
    tracer.add("moments.pairs", int(field.estimates.size))


# (defining module, attribute, span name, counter or None)
TARGETS = [
    ("kernels", "symbol", "kernels.symbol", count_symbol),
    ("conditions", "audit_conditions", "conditions.audit", None),
    ("conditions", "weighted_l1", "conditions.weighted_l1", None),
    ("conditions", "weighted_l1_increment", "conditions.weighted_l1_increment", None),
    ("noise", "sample_path", "noise.sample_path", count_path),
    ("convolution", "convolve_brownian", "convolution.convolve", count_ensemble),
    ("convolution", "convolve_poisson", "convolution.convolve", count_ensemble),
    ("convolution", "second_moment_pairs", "convolution.oracle", count_oracle),
    ("convolution", "FieldEnsemble.save", "convolution.ensemble_save", None),
    ("convolution", "FieldEnsemble.load", "convolution.ensemble_load", None),
    ("moments", "sample_pairs_dyadic", "moments.sample_pairs", None),
    ("moments", "sample_pairs_within_cylinder", "moments.sample_pairs", None),
    ("moments", "estimate_pair_moments", "moments.estimate", count_pairs),
    ("campanato", "campanato_seminorm", "campanato.seminorm", None),
    ("campanato", "campanato_from_pair_moments", "campanato.from_pair_moments", None),
    ("experiments", "run_experiment", "experiments.run", None),
    ("experiments", "emit_plot_data", "experiments.emit_plot_data", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_cmd_simulate", "cli.simulate", None),
    ("cli", "_cmd_moments", "cli.moments", None),
    ("cli", "_cmd_seminorm", "cli.seminorm", None),
]

COUNTERS = ("kernels.symbol.points", "kernels.symbol.computed_bytes",
            "noise.poisson_events", "convolution.realizations",
            "convolution.saved_times", "convolution.ensemble_bytes",
            "convolution.oracle_pairs", "moments.pairs")

# Span names whose self time makes up a layer's self time.
LAYER_SELF = {
    "experiments.self_s": ("experiments.run", "experiments.emit_plot_data"),
    "cli.self_s": ("cli.main", "cli.simulate", "cli.moments", "cli.seminorm"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.counters = {}  # run id -> {counter name: value}
        self.run_id = None
        self._stack = []
        self._patched = []  # (owner, attribute, original object)

    # -- recording ---------------------------------------------------------

    def add(self, counter, value):
        per_run = self.counters.setdefault(self.run_id, {})
        per_run[counter] = per_run.get(counter, 0) + value

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target wherever a holderlab module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "holderlab" or n.startswith("holderlab."))]
        for mod_name, attr, span_name, count in TARGETS:
            mod = sys.modules[f"holderlab.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(span_name, raw.__func__, count))
                else:
                    new = self.wrap(span_name, raw, count)
                self._patched.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(mod, attr)
            traced = self.wrap(span_name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summaries -----------------------------------------------------------

    def summary(self, run_id=None):
        """Per-layer metrics over all spans, or over one run id's spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        calls, busy, self_time = {}, {}, {}
        cap_hits = 0
        for i, (name, start, end, parent, rid) in enumerate(self.spans):
            if run_id is not None and rid != run_id:
                continue
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[i])
            if (name == "conditions.weighted_l1" and parent >= 0
                    and self.spans[parent][0] == "conditions.weighted_l1_increment"):
                cap_hits += 1
        out = {}
        for name in sorted({t[2] for t in TARGETS}):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.busy_s"] = busy.get(name, 0.0)
            out[f"{name}.self_s"] = self_time.get(name, 0.0)
        for layer, names in LAYER_SELF.items():
            out[layer] = sum(self_time.get(n, 0.0) for n in names)
        # a capped increment evaluates two plain weighted L1 norms
        out["conditions.ratio_cap_hits"] = cap_hits // 2
        runs = [run_id] if run_id is not None else list(self.counters)
        for counter in COUNTERS:
            out[counter] = sum(self.counters.get(rid, {}).get(counter, 0) for rid in runs)
        return out

    def span_table(self):
        """Spans in a compact, JSON-ready form."""
        return {"fields": ["name", "start", "end", "parent", "run"],
                "spans": self.spans}
