"""Per-layer spans for horofan, recorded from outside the program.

`Tracer.install()` wraps the public functions, and the public static
constructors of public classes, of each horofan layer module, and rebinds
every name that refers to them in any loaded horofan module (the package's
re-exports and `from .x import y` bindings included).  Each call becomes one
span: name, start, end (CPU seconds), parent span and operation id, kept in
flat arrays in memory and written out by `write()` at the end of the run.
`uninstall()` restores the original bindings.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

LAYERS = ("cli", "dictionary", "divisors", "horo", "polyhedra", "ratlp", "rootsys", "intlin")
# Leaf arithmetic on tiny tuples, called millions of times per round: a span
# around each call would cost several times the work it measures.
UNTRACED = {"intlin.vector_gcd", "polyhedra.dot", "polyhedra.primitive"}


PACKAGE = "horofan"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")  # no enclosing span of the same function
        self.current_op = -1
        self.lp_rows = 0
        self.lp_cols = 0
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock, stack, depth = time.process_time, self._stack, self._depth
        span_name, parent, op = self.span_name, self.parent, self.op
        start, end, outermost = self.start, self.end, self.outermost
        tracer = self
        counts_lp = name == "ratlp.maximize"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(span_name)
            level = depth.get(nid, 0)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            outermost.append(level == 0)
            end.append(0.0)
            if counts_lp:
                tracer.lp_rows += len(args[1])
                tracer.lp_cols += len(args[0])
            stack.append(sid)
            depth[nid] = level + 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                depth[nid] = level
                stack.pop()

        return traced

    def _targets(self):
        """(qualified name, owner, attribute, original, kind) for every traced callable."""
        prefix = PACKAGE + "."
        for layer in LAYERS:
            module = sys.modules[prefix + layer]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{layer}.{attr}", module, attr, obj, "function"
                elif inspect.isclass(obj):
                    for name, raw in list(vars(obj).items()):
                        if not name.startswith("_") and isinstance(raw, staticmethod):
                            yield f"{layer}.{attr}.{name}", obj, name, raw.__func__, "static"

    def install(self) -> None:
        prefix = PACKAGE + "."
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(prefix)]
        for qualified, owner, attr, fn, kind in list(self._targets()):
            if qualified in UNTRACED:
                continue
            wrapped = self._wrap(qualified, fn)
            if kind == "static":
                self._restore.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, staticmethod(wrapped))
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, name, value))
                        setattr(module, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # ------------------------------------------------------------ results

    def span_count(self) -> int:
        return len(self.span_name)

    def metrics(self, function_metrics) -> dict[str, float]:
        """Layer-wide calls/self time plus the named per-function figures.

        `function_metrics` lists names like "polyhedra.faces.calls",
        "ratlp.maximize.total_s" or "cli.execute.self_s".  A layer's calls
        count spans whose parent is outside the layer (or the benchmark); self
        time is a span's duration minus the time of its child spans.
        """
        n = len(self.span_name)
        names, span_name, parent = self.names, self.span_name, self.parent
        layer_of_name = [name.split(".", 1)[0] for name in names]
        duration = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += duration[i]
        per_name = [[0, 0.0, 0.0] for _ in names]  # calls, total (outermost), self
        layer = {name: [0, 0.0] for name in LAYERS}  # calls from outside, self
        for i in range(n):
            nid = span_name[i]
            own = layer_of_name[nid]
            stats = per_name[nid]
            stats[0] += 1
            if self.outermost[i]:
                stats[1] += duration[i]
            self_time = duration[i] - child[i]
            stats[2] += self_time
            p = parent[i]
            entry = layer[own]
            if p < 0 or layer_of_name[span_name[p]] != own:
                entry[0] += 1
            entry[1] += self_time
        out: dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = layer[name][0]
            out[f"{name}.self_s"] = layer[name][1]
        for metric in function_metrics:
            if metric in ("ratlp.lp_rows", "ratlp.lp_cols") or metric in out:
                continue
            fn, _, stat = metric.rpartition(".")
            if fn not in self.name_ids:
                raise KeyError(f"no traced function {fn!r} for metric {metric!r}")
            calls, total, self_time = per_name[self.name_ids[fn]]
            out[metric] = {"calls": calls, "total_s": total, "self_s": self_time}[stat]
        out["ratlp.lp_rows"] = self.lp_rows
        out["ratlp.lp_cols"] = self.lp_cols
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: id, parent, op, name, start_s, end_s."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("id,parent,op,name,start_s,end_s\n")
            for i in range(len(self.span_name)):
                handle.write(
                    f"{i},{self.parent[i]},{self.op[i]},{self.names[self.span_name[i]]},"
                    f"{self.start[i]!r},{self.end[i]!r}\n"
                )
