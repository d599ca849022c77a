"""Span tracer that wraps galkit's public functions from outside the package.

A span is one call of a wrapped function: its name, start, end and parent
(the nearest enclosing wrapped call, or -1).  Spans live in flat arrays in
memory and are written out once, at the end of a run.  Self time is a span's
duration minus the time its direct child spans cover; because the program is
single-threaded, child spans nest inside their parent, so that is the sum of
the children's durations.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

# layer (galkit module) -> wrapped names, as "function" or "Class.method"
LAYERS = {
    "order": (
        "build_poset", "FinLattice.from_poset", "powerset_lattice",
        "iter_downsets", "FinLattice.join", "FinLattice.lub", "FinPoset.leq",
    ),
    "setops": ("lift_diamond", "lift_star", "check_partition"),
    "galois": (
        "check_gc", "check_cgc", "check_cgp", "check_pcgc",
        "classify_partitioning", "precision_cmp", "nonempty_iso",
    ),
    "transforms": ("t_pgc", "t_cgc_of_pgc", "t_gc", "t_cgp", "t_ppgc", "t_pcgc"),
    "functions": ("bca_pcgc_entry",),
    "analyzer": (
        "parse_program", "analyze", "concrete_run", "AbstractSemantics.op_entry",
    ),
    "catalog": ("builtin", "gen_cgc", "gen_downsets_gc", "gen_ppgc"),
}


def span_names() -> list[str]:
    return [f"{mod}.{name}" for mod, names in LAYERS.items() for name in names]


class Tracer:
    """Records spans for the functions it wraps; ``install`` patches every
    ``galkit`` module namespace that binds a traced name, ``uninstall``
    restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.is_call = array("b")  # 0 for a generator resumed after its first step
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: int, end: int, parent: int = -1,
               is_call: bool = True) -> int:
        """Append a finished span and return its index."""
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.is_call.append(1 if is_call else 0)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    # -- wrapping --------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        names, parents, calls = self.name, self.parent, self.is_call
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        def open_span(first):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            calls.append(first)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            return i

        def close_span(i):
            ends[i] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's own work between
            # resumptions is not charged to the generator
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                first = 1
                try:
                    while True:
                        i = open_span(first)
                        first = 0
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            close_span(i)
                        yield item
                finally:
                    gen.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_span(1)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(i)

        return traced

    def install(self) -> None:
        import galkit  # noqa: F401  (binds the package namespace)

        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "galkit" or k.startswith("galkit."))
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"galkit.{layer}"]
            for qual in names:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self.wrap(f"{layer}.{qual}", raw.__func__))
                    else:
                        new = self.wrap(f"{layer}.{qual}", raw)
                    self._patches.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                orig = getattr(home, qual)
                new = self.wrap(f"{layer}.{qual}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def summarize(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, self time in ns)."""
        n = len(self.start)
        covered = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += self.is_call[i]
            self_ns[k] += end[i] - start[i] - covered[i]
        return {nm: (calls[k], self_ns[k]) for k, nm in enumerate(self.names)}

    def calls_under(self, name: str, parent_name: str) -> int:
        """Calls of ``name`` whose nearest traced caller is ``parent_name``."""
        if name not in self._ids or parent_name not in self._ids:
            return 0
        k, pk = self._ids[name], self._ids[parent_name]
        return sum(
            1 for i in range(len(self.start))
            if self.name[i] == k and self.is_call[i]
            and self.parent[i] >= 0 and self.name[self.parent[i]] == pk
        )

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the raw arrays
        (name, parent, is_call, start_ns, end_ns) in that order."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [
                [field, getattr(self, field).typecode]
                for field in ("name", "parent", "is_call", "start", "end")
            ],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(fh)
