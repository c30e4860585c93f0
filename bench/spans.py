"""Span tracing of stabwalk's public functions, attached from outside.

The tracer replaces every public function and method of the traced
modules with a wrapper that records a span: its name, its duration and
the span that called it.  Spans are folded into per-name totals as they
end (calls, inclusive time, self time) plus per (parent, child) call
counts, because a traced round makes millions of calls.  Nothing under
src/ changes: the wrappers are installed on the loaded modules and
classes and removed again after each traced round.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

LAYERS = ("linalg", "lattice", "charge", "strata", "hearts", "fm_words",
          "covering", "serialize", "plot", "cli")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.nested = Counter()  # (parent span name, span name) -> calls
        self.counts = Counter()  # counters read off arguments and results
        self._stack = []
        self._reflection_keys = set()
        self._alive = []  # lattices seen, kept alive so their ids stay distinct
        self._patches = []

    # -- recording ---------------------------------------------------------------

    def _wrap(self, name: str, fn, post):
        stack = self._stack
        calls, total_ns, self_ns, nested = self.calls, self.total_ns, self.self_ns, self.nested
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if post is not None:
                    post(args, kwargs, None, exc)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                calls[name] += 1
                total_ns[name] += dt
                self_ns[name] += dt - frame[1]
                nested[parent, name] += 1
            if post is not None:
                post(args, kwargs, result, None)
            return result

        return span

    def _post_hooks(self):
        counts = self.counts

        def reflection_mat(args, kwargs, result, exc):
            lat, i = args[0], args[1]
            if (id(lat), i) not in self._reflection_keys:
                self._reflection_keys.add((id(lat), i))
                self._alive.append(lat)

        def enumerate_weyl(args, kwargs, result, exc):
            if result is not None:
                counts["weyl.elements"] += len(result)

        def lift_path(args, kwargs, result, exc):
            if result is None:
                return
            start = args[2] if len(args) > 2 else kwargs.get("start")
            new = result.trace[len(start.trace) if start is not None else 0:]
            counts["covering.events"] += len(new)
            counts["covering.pops"] += sum(1 for e in new if e.action == "pop")

        def stack_theta(args, kwargs, result, exc):
            counts["covering.stack_theta.crossings"] += len(args[1])

        def dumps(args, kwargs, result, exc):
            if result is not None:
                counts["serialize.bytes_out"] += len(result.encode())

        def plot_slice(args, kwargs, result, exc):
            if result is not None:
                counts["plot.svg_bytes"] += len(result.encode())

        def main(args, kwargs, result, exc):
            # an exception escaping main ends a real process with a nonzero code
            if exc is not None or result != 0:
                counts["cli.main.nonzero_exits"] += 1

        return {
            "lattice.RootLattice.reflection_mat": reflection_mat,
            "lattice.RootLattice.enumerate_weyl": enumerate_weyl,
            "covering.lift_path": lift_path,
            "covering.stack_theta": stack_theta,
            "serialize.dumps": dumps,
            "plot.plot_slice": plot_slice,
            "cli.main": main,
        }

    # -- installing ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the loaded stabwalk layers."""
        hooks = self._post_hooks()
        loaded = [m for k, m in sys.modules.items() if k == "stabwalk" or k.startswith("stabwalk.")]
        for layer in LAYERS:
            mod = sys.modules.get(f"stabwalk.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    self._replace_everywhere(loaded, obj, self._wrap(name, obj, hooks.get(name)))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        self._patches.append((obj, meth, fn))
                        setattr(obj, meth, self._wrap(name, fn, hooks.get(name)))

    def _replace_everywhere(self, modules, fn, wrapper) -> None:
        # `from .x import f` copies the reference, and dispatch tables hold it too
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if val is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if item is fn:
                            self._patches.append((val, key, fn))
                            val[key] = wrapper

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._patches = []

    # -- reading -----------------------------------------------------------------------

    def layer_self_ms(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_ns.items() if k.startswith(prefix)) / 1e6

    def spans_table(self) -> dict:
        """Per-span totals, for the trace output file."""
        return {name: {"calls": self.calls[name],
                       "total_ms": self.total_ns[name] / 1e6,
                       "self_ms": self.self_ns[name] / 1e6,
                       "callers": {str(p): c for (p, n), c in self.nested.items() if n == name}}
                for name in sorted(self.calls)}

    def metrics(self) -> dict:
        """The per-layer metrics of one traced round."""
        c, tot, own, cnt = self.calls, self.total_ns, self.self_ns, self.counts
        L = "lattice.RootLattice."

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = (self.layer_self_ms(layer), "ms")
        m.update({
            "lattice.reflection_mat.calls": (c[L + "reflection_mat"], "count"),
            "lattice.reflection_mat.self_ms": (own[L + "reflection_mat"] / 1e6, "ms"),
            "lattice.reflection_mat.reuse": (ratio(c[L + "reflection_mat"], len(self._reflection_keys)), "ratio"),
            "lattice.coreflect.calls": (c[L + "coreflect"], "count"),
            "lattice.build_lattice.calls": (c["lattice.build_lattice"], "count"),
            "lattice.enumerate_roots.self_ms": (own[L + "enumerate_roots"] / 1e6, "ms"),
            "lattice.enumerate_weyl.calls": (c[L + "enumerate_weyl"], "count"),
            "lattice.enumerate_weyl.self_ms": (own[L + "enumerate_weyl"] / 1e6, "ms"),
            "lattice.weyl.elements": (cnt["weyl.elements"], "count"),
            "lattice.weyl.useful_ratio": (ratio(cnt["weyl.elements"],
                                                self.nested[L + "enumerate_weyl", "lattice.WeylElement.compose"]), "ratio"),
            "linalg.mat_inverse.calls": (c["linalg.mat_inverse"], "count"),
            "linalg.mat_inverse.self_ms": (own["linalg.mat_inverse"] / 1e6, "ms"),
            "linalg.mat_mul.calls": (c["linalg.mat_mul"], "count"),
            "linalg.mat_vec.calls": (c["linalg.mat_vec"], "count"),
            "strata.classify.calls": (c["strata.classify"], "count"),
            "strata.classify.us_per_call": (ratio(tot["strata.classify"] / 1e3, c["strata.classify"]), "us"),
            "strata.in_complement.calls": (c["strata.in_complement"], "count"),
            "strata.in_complement.self_ms": (own["strata.in_complement"] / 1e6, "ms"),
            "strata.coreflect_per_classify": (ratio(self.nested["strata.classify", L + "coreflect"],
                                                    c["strata.classify"]), "ratio"),
            "hearts.stability_check.calls": (c["hearts.stability_check"], "count"),
            "hearts.stability_check.us_per_call": (ratio(tot["hearts.stability_check"] / 1e3,
                                                         c["hearts.stability_check"]), "us"),
            "charge.central_charge.calls": (c["charge.central_charge"], "count"),
            "fm_words.affine_compose.calls": (c["fm_words.AffineMap.compose"], "count"),
            "fm_words.affine_inverse.calls": (c["fm_words.AffineMap.inverse"], "count"),
            "fm_words.theta.calls": (c["fm_words.theta"], "count"),
            "covering.lift_path.calls": (c["covering.lift_path"], "count"),
            "covering.events": (cnt["covering.events"], "count"),
            "covering.pops": (cnt["covering.pops"], "count"),
            "covering.us_per_event": (ratio(tot["covering.lift_path"] / 1e3, cnt["covering.events"]), "us"),
            "covering.stack_theta.crossings": (cnt["covering.stack_theta.crossings"], "count"),
            "covering.meridian.calls": (c["covering.meridian"], "count"),
            "covering.meridian.ms_per_call": (ratio(tot["covering.meridian"] / 1e6, c["covering.meridian"]), "ms"),
            "serialize.bytes_out": (cnt["serialize.bytes_out"], "B"),
            "plot.svg_bytes": (cnt["plot.svg_bytes"], "B"),
            "cli.main.calls": (c["cli.main"], "count"),
            "cli.main.nonzero_exits": (cnt["cli.main.nonzero_exits"], "count"),
        })
        return m
