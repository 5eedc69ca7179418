"""Per-layer spans for the traced benchmark run, recorded from outside the
library by wrapping its public functions.

A wrapped function counts its calls and its self time: the span's wall time
minus the time of wrapped functions it called.  Some layers add counters
read off their arguments or result (see EXTRAS).

Wrapping one binding is not enough: ``from .groebner import buchberger``
gives ``resolution`` its own name for the same function, and a call through
that name would be missed.  ``Tracer`` therefore replaces every module
attribute in the process that *is* the original function.  Functions
imported inside a function body (``from .groebner import lift_coordinates``
in ``ext_module``) are looked up at call time and so see the patched module
attribute.  The ``_kernels``
dispatch names alias the pure-numpy kernels (``merge_sub = _py_merge_sub``),
so the internal calls ``_py_normal_form`` makes to ``_py_merge_sub`` are
counted under ``merge_sub`` as well.
"""

import functools
import importlib
import sys
import time
import types

# (module of liaisonlab, qualified name): the layer boundaries we time.
LAYERS = (
    ("cli", "parse_session"),
    ("cli", "run"),
    ("cli", "emit_report"),
    ("glicci", "gaeta_run"),
    ("glicci", "GlicciCertificate.replay"),
    ("liaison", "direct_link"),
    ("liaison", "verify_link_invariants"),
    ("gorenstein", "PointSet.ideal"),
    ("gorenstein", "PointSet.hf"),
    ("gorenstein", "cayley_bacharach_check"),
    ("gorenstein", "wlp_check"),
    ("resolution", "resolve"),
    ("resolution", "minimal_generators"),
    ("resolution", "ext_numerator"),
    ("resolution", "classify"),
    ("hilbert", "hilbert_data"),
    ("hilbert", "mono_numerator"),
    ("ideals", "Ideal.intersect"),
    ("ideals", "Ideal.colon"),
    ("ideals", "Ideal.colon_poly"),
    ("ideals", "Ideal.eliminate"),
    ("groebner", "buchberger"),
    ("groebner", "interreduce"),
    ("groebner", "normal_form"),
    ("groebner", "syzygies_of"),
    ("groebner", "lift_coordinates"),
    ("_kernels", "normal_form_arrays"),
    ("_kernels", "merge_sub"),
    ("_kernels", "canonicalize"),
)


def _stages(counts, args, result):
    counts["stages"] += len(result.stages)


def _kept(counts, args, result):
    counts["kept"] += len(result)
    counts["offered"] += sum(1 for g in args[0] if not g.is_zero)


def _basis_out(counts, args, result):
    counts["basis_out"] += len(result)


def _zeros(counts, args, result):
    counts["zeros"] += result.is_zero


def _bytes_in(counts, args, result):
    # computed from the argument arrays' sizes, not measured traffic
    counts["bytes_in"] += sum(a.nbytes for a in args if hasattr(a, "nbytes"))


# layer -> (counter, stat, unit, better): the one extra stat a layer reports
EXTRAS = {
    ("resolution", "resolve"): (_stages, "stages", "count", "lower"),
    ("resolution", "minimal_generators"): (_kept, "kept_frac", "ratio", "higher"),
    ("groebner", "buchberger"): (_basis_out, "basis_out", "count", "lower"),
    ("groebner", "normal_form"): (_zeros, "zero_frac", "ratio", "lower"),
    ("_kernels", "normal_form_arrays"): (_bytes_in, "bytes_in", "B-computed", "lower"),
}

# Benchmark-level figures of a traced run (see run.py).
OVERHEAD_METRICS = {
    "bench.untraced_op_wall_s_p50": ("s", "lower"),
    "bench.traced_op_wall_s_p50": ("s", "lower"),
    "bench.trace_overhead_s": ("s", "lower"),
}


def layer_name(module, qualname):
    """Metric prefix of a layer.  Metric names must start with a letter, so
    ``_kernels`` is reported as ``kernels``."""
    return f"{module.lstrip('_')}.{qualname}"


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for layer in LAYERS:
        name = layer_name(*layer)
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
        if layer in EXTRAS:
            _, stat, unit, better = EXTRAS[layer]
            specs.append((f"{name}.{stat}", unit, better))
    specs.extend((name, unit, better) for name, (unit, better) in OVERHEAD_METRICS.items())
    return specs


class Tracer:
    """Context manager that wraps every LAYERS function while active.

    ``counts[layer]`` holds ``calls``, ``self_s`` and the layer's extra
    counters, summed over every call made while the tracer was active.  A
    tracer may be entered several times; its counts accumulate.
    """

    def __init__(self):
        self.counts = {layer: {"calls": 0, "self_s": 0.0, "stages": 0, "kept": 0,
                               "offered": 0, "basis_out": 0, "zeros": 0, "bytes_in": 0}
                       for layer in LAYERS}
        self._child_time = [0.0]  # one accumulator per open span, plus the root
        self._undo = []

    def _wrap(self, layer, fn):
        counts = self.counts[layer]
        extra = EXTRAS[layer][0] if layer in EXTRAS else None
        stack = self._child_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                counts["calls"] += 1
                counts["self_s"] += dt - child
            if extra is not None:
                extra(counts, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        by_id = {}  # id of each original module-level function -> its wrapper
        for layer in LAYERS:
            module, qualname = layer
            owner = importlib.import_module(f"liaisonlab.{module}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            wrapper = self._wrap(layer, owner.__dict__[attr])
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            else:
                by_id[id(owner.__dict__[attr])] = wrapper
        # patch every module binding of each module-level function
        for mod in list(sys.modules.values()):
            if not isinstance(mod, types.ModuleType):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    def metrics(self, ops):
        """Per-op means of every per-layer stat over ``ops`` traced ops."""
        out = {}
        for layer in LAYERS:
            c = self.counts[layer]
            name = layer_name(*layer)
            out[f"{name}.calls"] = c["calls"] / ops
            out[f"{name}.self_s"] = c["self_s"] / ops
            stat = EXTRAS[layer][1] if layer in EXTRAS else None
            if stat == "kept_frac":
                out[f"{name}.{stat}"] = c["kept"] / c["offered"] if c["offered"] else 0.0
            elif stat == "zero_frac":
                out[f"{name}.{stat}"] = c["zeros"] / c["calls"] if c["calls"] else 0.0
            elif stat is not None:
                out[f"{name}.{stat}"] = c[stat] / ops
        return out
