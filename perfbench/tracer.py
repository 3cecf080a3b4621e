"""Span tracer that wraps prmcodes from the outside.

Every public function of the library modules is replaced by a wrapper that
records a span (name, start, end, parent span, trial id), in the defining
module and in every library module that imported the name.  GF arithmetic
(add/sub/mul/neg) is counted, not timed: a span per field operation would
cost more than the operation.  `GF.__init__` gets a span so field
construction shows as gf set-up time.  Spans stay in memory until `dump`.
"""

import inspect
import json
import sys
import time

import numpy as np

MODULES = ("gf", "geometry", "poly", "codes", "linalg", "decoders")
GF_OPS = ("add", "sub", "mul", "neg")


class Tracer:
    def __init__(self, prmcodes):
        self.names = []          # span name by id
        self.spans = []          # (name_id, start, end, parent, trial)
        self.stack = []          # open span indexes
        self.trial = -1
        self.phase = "setup"
        self.keys = {"setup": set(), "timed": set()}
        self.gf_calls = self.gf_elems = self.gf_scalar = 0
        self._patches = self._plan(prmcodes)

    # -- patch plan ---------------------------------------------------------

    def _plan(self, prmcodes):
        """(owner, attribute, original, wrapper) for every patch site."""
        mods = [sys.modules[f"prmcodes.{m}"] for m in MODULES]
        users = [prmcodes] + [v for k, v in sorted(sys.modules.items())
                              if k.startswith("prmcodes.")]
        patches = []
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._span(f"{short}.{attr}", fn)
                for user in users:
                    for name, val in vars(user).items():
                        if val is fn:
                            patches.append((user, name, fn, wrapper))
        gf_cls = sys.modules["prmcodes.gf"].GF
        patches.append((gf_cls, "__init__", gf_cls.__init__,
                        self._span("gf.GF", gf_cls.__init__)))
        for op in GF_OPS:
            fn = vars(gf_cls)[op]
            patches.append((gf_cls, op, fn, self._count(fn)))
        return patches

    def install(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        key_of = _key_function(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if key_of is not None:
                self.keys[self.phase].add(key_of(*args))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.trial)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn):
        def wrapper(gf, *args):
            out = fn(gf, *args)
            self.gf_calls += 1
            if isinstance(out, np.ndarray):
                self.gf_elems += out.size
            else:
                self.gf_elems += 1
                self.gf_scalar += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reading the record -------------------------------------------------

    def mark(self):
        """Position in the record, for `totals` over a slice of it."""
        return len(self.spans), self.gf_calls, self.gf_elems, self.gf_scalar

    def totals(self, since, until):
        """Per span name: (calls, self seconds) between two marks."""
        lo, hi = since[0], until[0]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        covered = {}
        for i in range(lo, hi):
            name_id, start, end, parent, _ = self.spans[i]
            calls[name_id] += 1
            self_s[name_id] += end - start
            if parent >= lo:
                covered[parent] = covered.get(parent, 0.0) + end - start
        for i, c in covered.items():
            self_s[self.spans[i][0]] -= c
        out = {n: (calls[i], self_s[i]) for i, n in enumerate(self.names) if calls[i]}
        gf = [b - a for a, b in zip(since[1:], until[1:])]
        return out, gf

    def dump(self, path, meta):
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta, "names": self.names,
                                 "fields": ["name", "start", "end", "parent", "trial"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _key_function(name):
    # keys for the warm-up coverage check: which engine ran at which (m, d),
    # and which interpolation solver was used
    if name in ("decoders.decode_exhaustive", "decoders.decode_rs_affine"):
        return lambda spec, *rest: (name, spec.family, spec.m, spec.d)
    if name == "codes.interpolate_family":
        return lambda gf, family, m, d, *rest: (name, family, m, d)
    return None
