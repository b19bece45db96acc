"""Spans and counters around the calls into hforge's layers.

The tracer wraps functions from outside the package: each public function
that one hforge module imports from another is replaced, at every module
binding that refers to it, by a wrapper that records a span.  Every
function named in ``EXTRA`` is wrapped the same way, also where only its own
module calls it (intra-module calls go through the module's global binding,
so wrapping that binding sees them too).  Nothing under ``src/`` is edited;
``uninstall`` restores every binding.

A span is ``(id, parent_id, name, start, end)``; self time is the span's
duration minus the time its direct child spans cover.  Functions listed in
``AGGREGATED`` are called millions of times per pass (``marked_intersect`` at
``(1,3,2)``), so they keep only a call count and summed times, no span
records; they are leaves, so their self time is their whole time.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

AGGREGATED = frozenset(
    {"rays.marked_intersect", "rays.cell_of_point", "rays.grid_cells"}
)

# Spans of these carry the module's ring: fimodules.generation_degree.Q
BY_RING = frozenset({"fimodules.generation_degree", "fimodules.surjectivity_table"})

# Every function a per-layer metric names, wrapped at each binding whether or
# not another module imports it, so a refactor of imports keeps it traced.
# One that no longer exists is skipped and its metrics read 0.
EXTRA = (
    ("hforge.rays", "marked_intersect"),
    ("hforge.rays", "region_complement"),
    ("hforge.rays", "partition_validate"),
    ("hforge.rays", "cell_of_point"),
    ("hforge.houghton", "compose"),
    ("hforge.houghton", "inverse"),
    ("hforge.houghton", "validate"),
    ("hforge.houghton", "canonical_form"),
    ("hforge.houghton", "map_to_json"),
    ("hforge.houghton", "map_from_json"),
    ("hforge.houghton", "equals"),
    ("hforge.complexes", "enumerate_bounded_vertices"),
    ("hforge.complexes", "build_sn_truncated"),
    ("hforge.complexes", "boundary_matrices"),
    ("hforge.complexes", "reduced_homology"),
    ("hforge.complexes", "link"),
    ("hforge.complexes", "complex_from_json"),
    ("hforge.complexes", "SimplicialComplex.maximal_simplices"),
    ("hforge.fimodules", "generation_degree"),
    ("hforge.fimodules", "validate_fimodule"),
    ("hforge.fimodules", "module_from_json"),
    ("hforge.fimodules", "surjectivity_table"),
    ("hforge.cli", "main"),
    ("hforge.cli", "_emit"),
)

MODULES = (
    "hforge.rays",
    "hforge.houghton",
    "hforge.snf",
    "hforge.complexes",
    "hforge.fimodules",
    "hforge.cli",
)


def _span_name(fn) -> str:
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__.rsplit('.', 1)[-1]}"
    return "cli.json_emit" if name == "cli._emit" else name


def _matrix_shape(mat) -> tuple[int, int, int]:
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    nnz = sum(1 for row in mat for x in row if x)
    return rows, cols, nnz


def _count_snf(counters, args, result) -> None:
    rows, cols, nnz = _matrix_shape(args[0])
    counters["snf.entries_in"] += rows * cols
    counters["snf.nnz_in"] += nnz
    counters["snf.max_rows"] = max(counters["snf.max_rows"], rows)
    counters["snf.max_cols"] = max(counters["snf.max_cols"], cols)
    counters["snf.diag_units"] += sum(1 for x in result if abs(x) == 1)
    counters["snf.diag_torsion"] += sum(1 for x in result if abs(x) > 1)


def _count_boundary(counters, args, result) -> None:
    for mat in result.boundaries:
        rows, cols, nnz = _matrix_shape(mat)
        counters["complexes.boundary.rows"] += rows
        counters["complexes.boundary.cols"] += cols
        counters["complexes.boundary.nnz"] += nnz


def _count_build(counters, args, result) -> None:
    v = len(result.vertices)
    counters["complexes.vertices"] += v
    counters["complexes.pairs"] += v * (v - 1) // 2
    for d in (0, 1, 2):
        counters[f"complexes.simplices.d{d}"] += len(result.simplices.get(d, ()))


COUNTERS = {
    "snf.snf_diagonal": _count_snf,
    "complexes.boundary_matrices": _count_boundary,
    "complexes.build_sn_truncated": _count_build,
}


class Tracer:
    """Span recorder; one per worker pass, kept in memory until the pass ends."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        self._next_id += 1
        frame = [0.0, self._next_id]
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            entry = self.stats[name]
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - frame[0]
            self.spans.append((frame[1], parent[1] if parent else None, name, t0, t1))
        count = COUNTERS.get(name)
        if count is not None:
            count(self.counters, args, result)
        if parent is not None:
            # counter bookkeeping is charged to no one's self time
            parent[0] += perf_counter() - t0
        return result

    def _wrapper(self, fn):
        name = _span_name(fn)
        call = self.call
        if name in BY_RING:
            @functools.wraps(fn)
            def by_ring(*args, **kwargs):
                ring = args[0].ring if args else kwargs["v"].ring
                return call(f"{name}.{ring}", fn, args, kwargs)
            return by_ring

        if name in AGGREGATED:
            return self._leaf_wrapper(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs)
        return wrapper

    def _leaf_wrapper(self, name: str, fn):
        """Count and time a hot leaf function without recording spans."""
        entry = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def leaf(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt
                if stack:
                    stack[-1][0] += dt
        return leaf

    def install(self) -> None:
        """Wrap cross-module imports and the ``EXTRA`` functions everywhere bound."""
        modules = [sys.modules[m] for m in MODULES]
        targets = {}
        for mod in modules:
            for attr, value in vars(mod).items():
                home = getattr(value, "__module__", None)
                if (
                    callable(value)
                    and not isinstance(value, type)
                    and not attr.startswith("_")
                    and home in MODULES
                    and home != mod.__name__
                ):
                    targets[id(value)] = value
        extra_methods = []
        for modname, qualname in EXTRA:
            owner = sys.modules[modname]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                continue
            targets[id(fn)] = fn
            if path:
                extra_methods.append((owner, attr, fn))
        wrappers = {key: self._wrapper(fn) for key, fn in targets.items()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is targets[id(value)]:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        for cls, attr, fn in extra_methods:
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-name ``calls``, ``total_s`` and ``self_s``, plus the counters."""
        out = {
            name: {"calls": c, "total_s": total, "self_s": self_s}
            for name, (c, total, self_s) in sorted(self.stats.items())
        }
        return {"functions": out, "counters": dict(sorted(self.counters.items()))}
