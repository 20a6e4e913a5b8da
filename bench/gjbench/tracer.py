"""Span tracer that wraps greenjulia's public functions from outside.

Each target function is replaced, under every module name it is imported
as, by a wrapper that records one span per call: id, parent id, request
id, function, start, end, time spent in child spans, and whether the call
raised.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

# layer -> public functions traced in that layer
TARGETS = {
    "boettcher": ("trace_ray", "log_deriv_jet", "ray_integrand"),
    "radvar": ("radial_variation",),
    "goodset": ("good_set_level", "generate_cover", "cover_to_dict",
                "membership", "dimension_bound"),
    "poincare": ("landmarks", "invert_F_branch", "comb_to_dict"),
    "cli": ("main",),
    "dynamics": ("derive_params",),
}
NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)
_FIELDS = 8   # id, parent, request, name index, start_ns, end_ns, child_ns, raised


class Tracer:
    def __init__(self):
        self.request_id = 0
        self._spans = array("q")
        self._stack = []
        self._next_id = 1
        self._patched = []

    def _wrap(self, index: int, fn):
        stack, spans, clock = self._stack, self._spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            raised = 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                raised = 0
                return out
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans.extend((sid, parent, self.request_id, index, t0, t1,
                              frame[1], raised))

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    @contextmanager
    def installed(self):
        """Patch every greenjulia module attribute bound to a target."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "greenjulia"
                                         or name.startswith("greenjulia."))]
        for index, qual in enumerate(NAMES):
            layer, fn_name = qual.split(".")
            orig = getattr(sys.modules[f"greenjulia.{layer}"], fn_name)
            wrapper = self._wrap(index, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(self._patched):
                setattr(mod, attr, orig)
            self._patched.clear()

    def spans(self):
        """Recorded spans as tuples in the field order of _FIELDS."""
        s = self._spans
        return [tuple(s[i:i + _FIELDS]) for i in range(0, len(s), _FIELDS)]

    def summary(self) -> dict:
        """Per function: calls, self time; per layer: exceptions that left it;
        landmarks calls made inside invert_F_branch; top-level span time."""
        spans = self.spans()
        layer_of = [q.split(".")[0] for q in NAMES]
        name_of = {sid: idx for sid, _, _, idx, *_ in spans}
        calls = [0] * len(NAMES)
        self_ns = [0] * len(NAMES)
        errors = {layer: 0 for layer in TARGETS}
        top_ns = 0
        lm, inv = NAMES.index("poincare.landmarks"), NAMES.index("poincare.invert_F_branch")
        lm_in_invert = 0
        for sid, parent, _rid, idx, t0, t1, child, raised in spans:
            calls[idx] += 1
            self_ns[idx] += t1 - t0 - child
            pidx = name_of.get(parent)
            if raised and (pidx is None or layer_of[pidx] != layer_of[idx]):
                errors[layer_of[idx]] += 1
            if parent == 0:
                top_ns += t1 - t0
            if idx == lm and pidx == inv:
                lm_in_invert += 1
        return {"calls": dict(zip(NAMES, calls)),
                "self_s": {n: ns / 1e9 for n, ns in zip(NAMES, self_ns)},
                "errors": errors, "top_s": top_ns / 1e9,
                "landmarks_in_invert": lm_in_invert, "spans": len(spans)}

    def write(self, path):
        """Spans as CSV, one line per span, times in ns."""
        with open(path, "w") as fh:
            fh.write("id,parent,request,name,start_ns,end_ns,child_ns,raised\n")
            for sid, parent, rid, idx, t0, t1, child, raised in self.spans():
                fh.write(f"{sid},{parent},{rid},{NAMES[idx]},{t0},{t1},{child},{raised}\n")
