"""Span recorder that wraps qweyl's public callables from outside the package.

A span is recorded only where a call crosses from one layer into another
(the benchmark itself is the root), so a layer's self time is the time
inside its spans minus the spans it caused.  Calls that stay inside one
layer are counted but not timed.  Spans live in typed arrays while the
workload runs and are written out once, when it ends.

Every wrapped name is rebound in each ``qweyl`` module (and module-level
dict) that holds the original object, because modules import each other's
functions by name: ``haar`` binds ``apply_ops``/``inner``/``represent``
from ``gauss``, ``weyl`` binds ``q_power`` from ``coeff``, and ``cli``
keeps its suite runners in the ``_RUNNERS`` dict.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

LAYERS = ("coeff", "weyl", "uq", "gauss", "haar", "parser", "cli")

# Class methods wrapped per layer.  QI (the Gaussian-rational digit type of
# coeff) is deliberately left out: it sits below ScalarValue and is called
# millions of times from inside coeff only.
CLASSES = {
    "coeff": ("ScalarValue",),
    "weyl": ("AlgebraElement",),
    "uq": ("HopfElement",),
    "gauss": ("GaussianState", "ElementaryOperator"),
    "haar": ("FiniteRankOperator",),
}
_SKIP_METHODS = {"__init__", "__new__", "__hash__", "__eq__", "__bool__",
                 "__repr__", "__post_init__", "__setattr__", "__delattr__",
                 "__getattribute__", "__getattr__"}

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
              "inv")
BUILDERS = ("rho", "rho_inv", "a_op", "b_op", "gamma", "q_elem", "q_elem_inv")

# Units of the per-layer metrics, in the order they are reported.
UNITS = {
    "coeff.ops": "count", "coeff.self_s": "s", "coeff.evaluate_calls": "count",
    "coeff.max_den_degree": "degree", "coeff.monomial_den_frac": "ratio",
    "weyl.normal_form_calls": "count", "weyl.mul_calls": "count",
    "weyl.peak_terms": "terms", "weyl.builder_calls": "count",
    "weyl.self_s": "s",
    "uq.act_calls": "count", "uq.act_element_calls": "count",
    "uq.act_repeat_frac": "ratio", "uq.self_s": "s",
    "gauss.represent_calls": "count", "gauss.represent_repeat_frac": "ratio",
    "gauss.apply_ops_calls": "count", "gauss.shift_ops_applied": "count",
    "gauss.merge_frac": "ratio", "gauss.inner_calls": "count",
    "gauss.leg_overlaps": "count", "gauss.self_s": "s",
    # ab-rho pointwise cases failing only at the precision floor; counted
    # from the report lines by run.py, not from spans
    "gauss.floor_cases": "count",
    "haar.trace_calls": "count", "haar.act_on_operator_calls": "count",
    "haar.peak_rank": "dyads", "haar.self_s": "s",
    "parser.calls": "count", "parser.self_s": "s",
    "cli.calls": "count", "cli.self_s": "s",
    "tracing_overhead_s": "s",
}


def _qweyl_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qweyl" or name.startswith("qweyl."))]


def rebind(original, replacement):
    """Point every module attribute and module-level dict entry holding
    ``original`` at ``replacement``."""
    for mod in _qweyl_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
            elif type(value) is dict and not key.startswith("__"):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = replacement


def _public_functions(mod):
    for name, value in sorted(vars(mod).items()):
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == mod.__name__):
            yield name, value


def _methods(cls):
    for name, value in sorted(vars(cls).items()):
        if name in _SKIP_METHODS or (name.startswith("_")
                                     and not name.startswith("__")):
            continue
        if isinstance(value, staticmethod):
            yield name, value, True
        elif inspect.isfunction(value):
            yield name, value, False


class Recorder:
    """In-memory span store plus the per-layer counters the benchmark reports."""

    def __init__(self):
        self.names = []            # span-name id -> "layer:qualified.name"
        self.name_layer = []       # span-name id -> layer index
        self.calls = []            # span-name id -> call count (all calls)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_overhead = array("d")   # observer time spent inside a span
        self.stack = [(-1, -1)]           # (span index, layer index)
        self.stats = {
            "max_den_degree": 0, "scalar_results": 0, "monomial_den": 0,
            "peak_terms": 0, "act_repeats": 0, "represent_repeats": 0,
            "shift_ops_applied": 0, "apply_out_terms": 0, "leg_overlaps": 0,
            "peak_rank": 0,
        }
        self._act_seen = set()
        self._represent_seen = set()

    # -- wrapping -----------------------------------------------------------

    def _name_id(self, layer, name):
        self.names.append(f"{layer}:{name}")
        self.name_layer.append(LAYERS.index(layer))
        self.calls.append(0)
        return len(self.names) - 1

    def wrap(self, layer, name, fn, before=None, after=None):
        """Return ``fn`` wrapped as a span of ``layer``.

        ``before(args)`` and ``after(args, result)`` feed the counters; their
        time is charged to the enclosing span as overhead, not to a layer.
        """
        nid = self._name_id(layer, name)
        lid = LAYERS.index(layer)
        calls = self.calls
        stack = self.stack
        names, parents = self.span_name, self.span_parent
        starts, ends, overhead = self.span_start, self.span_end, self.span_overhead
        clock = time.perf_counter

        def observe(hook, *hook_args):
            t0 = clock()
            hook(*hook_args)
            top = stack[-1][0]
            if top >= 0:
                overhead[top] += clock() - t0

        def traced(*args, **kwargs):
            calls[nid] += 1
            if before is not None:
                observe(before, args)
            top = stack[-1]
            if top[1] == lid:
                result = fn(*args, **kwargs)
            else:
                idx = len(starts)
                names.append(nid)
                parents.append(top[0])
                overhead.append(0.0)
                ends.append(0.0)
                stack.append((idx, lid))
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
            if after is not None:
                observe(after, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules):
        """Wrap the public functions and the listed classes' methods of each
        layer module (a dict layer -> module) and rebind them everywhere."""
        from qweyl.coeff import ScalarValue
        from qweyl.weyl import AlgebraElement

        def scalar_after(args, result):
            if type(result) is ScalarValue:
                st = self.stats
                st["scalar_results"] += 1
                den = result.den
                deg = len(den) - 1
                if deg > st["max_den_degree"]:
                    st["max_den_degree"] = deg
                if not any(den[:-1]):
                    st["monomial_den"] += 1

        def element_after(args, result):
            if type(result) is AlgebraElement:
                size = len(result.terms)
                if size > self.stats["peak_terms"]:
                    self.stats["peak_terms"] = size

        def act_before(args):
            g, f = args
            key = (g, f.n, tuple(sorted(f.terms.items())))
            if key in self._act_seen:
                self.stats["act_repeats"] += 1
            else:
                self._act_seen.add(key)

        def represent_before(args):
            element, ctx = args
            key = (element.n, tuple(sorted(element.terms.items())), ctx)
            if key in self._represent_seen:
                self.stats["represent_repeats"] += 1
            else:
                self._represent_seen.add(key)

        def apply_after(args, result):
            ops, state = args
            self.stats["shift_ops_applied"] += len(ops) * len(state.terms)
            self.stats["apply_out_terms"] += len(result.terms)

        def inner_after(args, result):
            u, v = args
            self.stats["leg_overlaps"] += len(u.terms) * len(v.terms) * u.n

        def rank_of(op):
            if len(op.terms) > self.stats["peak_rank"]:
                self.stats["peak_rank"] = len(op.terms)

        hooks = {
            ("coeff", name): (None, scalar_after) for name in SCALAR_OPS
        }
        hooks[("uq", "act")] = (act_before, None)
        hooks[("gauss", "represent")] = (represent_before, None)
        hooks[("gauss", "apply_ops")] = (None, apply_after)
        hooks[("gauss", "inner")] = (None, inner_after)
        hooks[("haar", "quantum_trace")] = (lambda args: rank_of(args[0]), None)
        hooks[("haar", "act_on_operator")] = (None, lambda a, r: rank_of(r))

        def hooks_for(layer, name):
            before, after = hooks.get((layer, name), (None, None))
            if layer == "weyl" and after is None:
                after = element_after
            return before, after

        for layer, mod in modules.items():
            for name, fn in _public_functions(mod):
                rebind(fn, self.wrap(layer, name, fn, *hooks_for(layer, name)))
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for name, value, static in _methods(cls):
                    fn = value.__func__ if static else value
                    wrapped = self.wrap(layer, f"{cls_name}.{name}", fn,
                                        *hooks_for(layer, name))
                    setattr(cls, name, staticmethod(wrapped) if static else wrapped)

    # -- results ------------------------------------------------------------

    def _calls(self, *qualified):
        wanted = set(qualified)
        return sum(c for name, c in zip(self.names, self.calls) if name in wanted)

    def self_times(self, ref):
        """Self seconds and span count per layer.

        ``ref`` converts raw stamps to reference seconds (see ``speed``).
        Self time is span time minus child spans and observer time.
        """
        import numpy as np

        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        raw = end - start
        dur = ref(end) - ref(start)
        overhead = np.frombuffer(self.span_overhead, dtype=np.float64)
        overhead = overhead * np.divide(dur, raw, out=np.ones_like(raw),
                                        where=raw > 0)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child - overhead
        layer = np.asarray(self.name_layer, dtype=np.int64)[name]
        seconds = np.bincount(layer, weights=own, minlength=len(LAYERS))
        spans = np.bincount(layer, minlength=len(LAYERS))
        return ({lay: float(seconds[i]) for i, lay in enumerate(LAYERS)},
                {lay: int(spans[i]) for i, lay in enumerate(LAYERS)})

    def metrics(self, ref):
        """Per-layer metrics keyed by the names in BENCHMARK.json."""
        st = self.stats
        self_s, spans = self.self_times(ref)
        ops = self._calls(*(f"coeff:ScalarValue.{n}" for n in SCALAR_OPS))
        act_calls = self._calls("uq:act")
        represent_calls = self._calls("gauss:represent")
        shift = st["shift_ops_applied"]
        return {
            "coeff.ops": ops,
            "coeff.self_s": self_s["coeff"],
            "coeff.evaluate_calls": self._calls("coeff:ScalarValue.evaluate"),
            "coeff.max_den_degree": st["max_den_degree"],
            "coeff.monomial_den_frac": _ratio(st["monomial_den"],
                                              st["scalar_results"]),
            "weyl.normal_form_calls": self._calls("weyl:normal_form"),
            "weyl.mul_calls": self._calls("weyl:AlgebraElement.__mul__",
                                          "weyl:AlgebraElement.__rmul__"),
            "weyl.peak_terms": st["peak_terms"],
            "weyl.builder_calls": self._calls(*(f"weyl:{n}" for n in BUILDERS)),
            "weyl.self_s": self_s["weyl"],
            "uq.act_calls": act_calls,
            "uq.act_element_calls": self._calls("uq:act_element"),
            "uq.act_repeat_frac": _ratio(st["act_repeats"], act_calls),
            "uq.self_s": self_s["uq"],
            "gauss.represent_calls": represent_calls,
            "gauss.represent_repeat_frac": _ratio(st["represent_repeats"],
                                                  represent_calls),
            "gauss.apply_ops_calls": self._calls("gauss:apply_ops"),
            "gauss.shift_ops_applied": shift,
            "gauss.merge_frac": (1.0 - st["apply_out_terms"] / shift) if shift
            else 0.0,
            "gauss.inner_calls": self._calls("gauss:inner"),
            "gauss.leg_overlaps": st["leg_overlaps"],
            "gauss.self_s": self_s["gauss"],
            "haar.trace_calls": self._calls("haar:quantum_trace"),
            "haar.act_on_operator_calls": self._calls("haar:act_on_operator"),
            "haar.peak_rank": st["peak_rank"],
            "haar.self_s": self_s["haar"],
            "parser.calls": spans["parser"],
            "parser.self_s": self_s["parser"],
            "cli.calls": spans["cli"],
            "cli.self_s": self_s["cli"],
        }

    def write(self, path):
        """Write the spans as arrays (name id, parent, start, end) plus names."""
        import numpy as np

        np.savez(path,
                 names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))


def _ratio(num, den):
    return num / den if den else 0.0
