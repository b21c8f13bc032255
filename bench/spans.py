"""Spans around the package's public functions, for the traced run.

The tracer swaps each traced function for a timing wrapper in every
``spherebundles`` module that binds it (``from .complexes import link``
makes ``verify.link`` a second binding), so calls between modules are seen
as well as calls from the benchmark.  Spans (name, start, end, parent) stay
in memory for one round and are then folded into per-name figures:

* ``<name>.s``       inclusive time, counting only the outermost span of a
  name so that recursion is not counted twice;
* ``<name>.self_s``  inclusive time minus the time of direct child spans;
* ``<name>.calls``   number of calls;
* extra counters, such as the rows and nonzeros handed to ``exact_rank``.

Nothing here changes what a traced function computes.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, attribute path) of every traced function; the span is named
# "<module>.<attribute path>".
TARGETS = (
    ("moves", "apply_move"),
    ("moves", "is_flippable"),
    ("moves", "build_fill_schedule"),
    ("complexes", "Complex.faces"),
    ("complexes", "is_pseudomanifold"),
    ("complexes", "link"),
    ("complexes", "f_vector"),
    ("stacked", "subdivide_facet"),
    ("stacked", "build_delta"),
    ("verify", "exact_rank"),
    ("verify", "betti_numbers"),
    ("verify", "manifold_evidence"),
    ("verify", "orientability"),
    ("verify", "are_isomorphic"),
    ("handles", "orientation_double_cover"),
    ("handles", "handle_addition"),
    ("fileio", "analyze"),
    ("fileio", "parse"),
    ("fileio", "write"),
)

PACKAGE = "spherebundles"


def _exact_rank_counters(args, kwargs) -> dict[str, int]:
    rows = args[0] if args else kwargs["sparse_rows"]
    return {"rows_in": len(rows), "nnz_in": sum(len(r) for r in rows)}


COUNTERS = {"verify.exact_rank": _exact_rank_counters}


class Tracer:
    """Installs span-recording wrappers and folds the spans of one round."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counters: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        count = COUNTERS.get(name)
        if count is not None:
            bucket = self.counters.setdefault(name, {})
            for key, value in count(args, kwargs).items():
                bucket[key] = bucket.get(key, 0) + value
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        traced.__wrapped__ = fn  # inspect.signature() then sees fn's parameters
        return traced

    def _wrap_cli_run(self, fn):
        # cli.run dispatches every subcommand; name the span after it
        def traced(args, *rest, **kwargs):
            return self._span(f"cli.{args.command}", fn, (args, *rest), kwargs)

        return traced

    # -- installing --------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` by ``wrapper`` wherever a package module binds it."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for modname, path in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{modname}")
            name = f"{modname}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
            else:
                original = getattr(module, path)
                self._rebind(original, self._wrap(name, original))
        cli = importlib.import_module(f"{PACKAGE}.cli")
        self._rebind(cli.run, self._wrap_cli_run(cli.run))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- folding -----------------------------------------------------------

    def collect(self) -> dict[str, float]:
        """Per-name figures for the spans since the last call, then forget them."""
        spans = self.spans
        if self._stack or any(s is None for s in spans):
            raise RuntimeError("collect() called inside an open span")
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for idx, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - child_time[idx]
            outermost = True
            p = parent
            while p >= 0:
                if spans[p][0] == name:
                    outermost = False
                    break
                p = spans[p][3]
            if outermost:
                out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
        for name, bucket in self.counters.items():
            for key, value in bucket.items():
                out[f"{name}.{key}"] = value
        self.spans = []
        self.counters = {}
        return out
