"""Spans around the calls into each steinbounds module, from outside it.

`install()` replaces the public entry points of every layer with wrappers
that record a span per call: name, start, end, parent span and request id.
Module-level functions are rebound in every steinbounds module that holds
them (so `from .numerics import integrate` copies are seen too), and the
`density`, `sample`, `expect` and `quantile` methods are patched on every
Distribution subclass that defines them.  A call whose parent span has the
same name is not a new span: `Affine.density` calling its base's density is
one density call, counted at the outermost call.

Spans stay in memory in flat arrays and are written out at the end.  A
span's self time is its duration minus the durations of its direct
children; the per-layer metrics are sums of self times and counts per name.
This module is the one place that names the layers: `Tracer.metrics()`
derives every per-layer metric from the spans installed here.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

ROOT = "request"

# Layers whose call count is a metric of its own (with a work count, also
# the work per call).
COUNT_CALLS = ("numerics.quad", "numerics.inverse_cdf", "distributions.density")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s, self.calls, self.amount, self.labels = [], [], [], []
        self._stack = []  # [span index, name id, child seconds] per open span
        self._request_id = [-1]
        self._root = self.wrap(lambda fn, *args: fn(*args), ROOT, root=True)

    def _id(self, name, label):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
            self.amount.append(0)
            self.labels.append(label)
        return self._ids[name]

    def request_span(self, request_id, fn, *args):
        """Run fn(*args) as the root span of one request."""
        self._request_id[0] = request_id
        return self._root(fn, *args)

    def wrap(self, fn, name, amount=None, root=False):
        """fn recording a span per call.  amount is (label, count), where
        count(args, kwargs, result) gives the work the call adds to the
        layer's counter `<name>.<label>`.  Outside a request, or directly
        inside a span of the same name, fn runs without a span."""
        label, amount = amount or (None, None)
        nid = self._id(name, label)
        stack, clock, request_id = self._stack, time.perf_counter, self._request_id
        name_ids, parents, requests = self.name_id, self.parent, self.request
        starts, ends = self.start, self.end
        self_s, calls, amounts = self.self_s, self.calls, self.amount

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not root and (not stack or stack[-1][1] == nid):
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            requests.append(request_id[0])
            frame = [idx, nid, 0.0]
            stack.append(frame)
            ends.append(0.0)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                self_s[nid] += dur - frame[2]
                calls[nid] += 1
                if stack:
                    stack[-1][2] += dur
            if amount is not None:
                amounts[nid] += amount(args, kwargs, result)
            return result

        return traced

    def totals(self):
        """{layer: (calls, self seconds, amount)} over every span recorded,
        request root spans left out."""
        return {name: (self.calls[i], self.self_s[i], self.amount[i])
                for i, name in enumerate(self.names) if name != ROOT}

    def metrics(self):
        """{metric name: (value, unit)} for every layer wrapped: its self
        time, its work count if it has one, and for COUNT_CALLS layers the
        calls and the work per call.  A phase of one class
        (module.class.phase) reports its self time as `<name>_s`, any other
        layer as `<name>.self_s`."""
        out = {}
        for name, calls, self_s, amount, label in zip(
                self.names, self.calls, self.self_s, self.amount, self.labels):
            if name == ROOT:
                continue
            if name in COUNT_CALLS:
                out[f"{name}.calls"] = (calls, "count")
            if label:
                out[f"{name}.{label}"] = (amount, "count")
            if name in COUNT_CALLS and label:
                out[f"{name}.{label}_per_call"] = (
                    amount / calls if calls else 0.0, f"{label}/call")
            self_name = f"{name}_s" if name.count(".") == 2 else f"{name}.self_s"
            out[self_name] = (self_s, "s")
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), request=np.asarray(self.request),
                 start=np.asarray(self.start), end=np.asarray(self.end))


def _points(a, k, r):
    return np.size(a[1] if len(a) > 1 else k["x"])


EVALS = ("evals", lambda a, k, r: r.evaluations)
POINTS = ("points", _points)

# (module, attribute, span name, amount) for module-level functions.
FUNCTIONS = (
    ("numerics", "integrate", "numerics.quad", EVALS),
    ("numerics", "integrate_soft", "numerics.quad", EVALS),
    ("numerics", "inverse_cdf", "numerics.inverse_cdf", None),
    ("kernels", "integral_kernel", "kernels.integral_kernel", None),
    ("kernels", "smoothed_kernel", "kernels.smoothed_kernel", None),
    ("transforms", "stop_loss", "transforms.stop_loss",
     ("points", lambda a, k, r: np.size(a[1] if len(a) > 1 else k["t"]))),
    ("orderings", "check_cx", "orderings.check_cx", None),
    ("orderings", "check_nbue_nwue", "orderings.check_nbue_nwue", None),
    ("orderings", "check_counting_condition",
     "orderings.check_counting_condition", None),
    ("exprfn", "make_test_function", "exprfn.make_test_function", None),
    ("bounds", "mc_variance", "bounds.mc_variance",
     ("draws", lambda a, k, r: int(a[3] if len(a) > 3 else k["n_mc"]))),
    ("bounds", "bound_generic", "bounds.assembly", None),
    ("bounds", "bound_cacoullos", "bounds.assembly", None),
    ("bounds", "bound_zero_bias", "bounds.assembly", None),
    ("bounds", "bound_zero_bias_remainder", "bounds.assembly", None),
    ("bounds", "bound_convex_order", "bounds.assembly", None),
    ("bounds", "bound_equilibrium", "bounds.assembly", None),
    ("bounds", "bound_smoothed", "bounds.assembly", None),
    ("bayes", "update", "bayes.update", None),
    ("bayes", "posterior_bounds", "bayes.posterior_bounds", None),
    ("verify", "run_scenario", "verify.run_scenario", None),
    ("cli", "_emit", "cli.emit", None),
)

# (span name, amount) for the Distribution methods patched on every
# subclass that defines them.
METHODS = {
    "density": ("distributions.density", POINTS),
    "sample": ("distributions.sample",
               ("draws", lambda a, k, r: int(np.prod(a[2] if len(a) > 2
                                                     else k["size"])))),
    "expect": ("distributions.expect", None),
    "quantile": ("distributions.quantile", None),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer):
    """Wrap every layer entry point of the loaded steinbounds package."""
    import steinbounds.cli  # noqa: F401 - loads every steinbounds module
    from steinbounds import distributions, exprfn, kernels, transforms

    modules = [m for name, m in sys.modules.items()
               if name == "steinbounds" or name.startswith("steinbounds.")]
    for module, attr, name, amount in FUNCTIONS:
        original = getattr(sys.modules[f"steinbounds.{module}"], attr)
        traced = tracer.wrap(original, name, amount)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)

    zb_cls = transforms.ZeroBiasDistribution
    for cls in [distributions.Distribution, *_subclasses(distributions.Distribution)]:
        for meth, (name, amount) in METHODS.items():
            if meth in vars(cls):
                if cls is zb_cls and meth == "expect":
                    name = "transforms.zero_bias.expect"
                setattr(cls, meth, tracer.wrap(vars(cls)[meth], name, amount))

    for cls, meth, name, amount in (
            (zb_cls, "__init__", "transforms.zero_bias.build", None),
            (transforms.EquilibriumDistribution, "__init__",
             "transforms.equilibrium.build", None),
            (transforms.SumZeroBiasCoupling, "joint_sample",
             "transforms.joint_sample", None),
            (kernels.SteinKernel, "__call__", "kernels.tau", POINTS),
            (exprfn.Expr, "__call__", "exprfn.eval", POINTS)):
        setattr(cls, meth, tracer.wrap(vars(cls)[meth], name, amount))
