"""Layer tracing from outside the program.

``Tracer.install`` replaces each traced liftgeo function by a wrapper in
every liftgeo module namespace that binds it: ``bodies``, ``lifting``,
``regions``, ``covering``, ``lattice`` and ``cli`` import geom's functions
by name, so patching ``geom`` alone would miss their calls.  Each call
records a span (traced function, parent span, start, end) in memory; the
chain of parents ends at the operation's ``cli.main`` span.  Self time is
a span's duration minus its child spans.  Work counts are read from return
values.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Optional

# module, attribute path inside it
TRACED = (
    ("cli", "main"),
    ("serialize", "load_json"),
    ("serialize", "body_from_doc"),
    ("serialize", "tableau_from_doc"),
    ("serialize", "dumps_doc"),
    ("bodies", "verify_maximal_sfree"),
    ("bodies", "lattice_points_in_body"),
    ("gauge", "psi"),
    ("gauge", "psi_value"),
    ("lifting", "pi_star"),
    ("lifting", "pi_star_periodic"),
    ("regions", "lifting_region"),
    ("regions", "region_of_point"),
    ("covering", "covering_decision"),
    ("covering", "union_area_sweep"),
    ("covering", "non_uniqueness_witness"),
    ("covering", "covered_point"),
    ("lattice", "enumerate_lattice_points"),
    ("lattice", "QuotientBasis.quotient_poly"),
    ("geom", "linear_max"),
    ("geom", "fm_eliminate"),
    ("geom", "irredundant"),
    ("geom", "poly_equal"),
    ("geom", "affine_dim"),
    ("geom", "vertices_2d"),
    ("geom", "polygon_intersection_2d"),
)

MODULES = ("cli", "serialize", "bodies", "gauge", "lifting", "regions", "covering", "lattice", "geom")

# work counts summed over return values: (traced key, count name, getter)
COUNTS: tuple[tuple[str, str, Callable[[Any], int]], ...] = (
    ("geom.fm_eliminate", "rows_out", len),
    ("lattice.enumerate_lattice_points", "points", lambda res: len(res[0])),
    ("lifting.pi_star", "t_scanned", lambda res: res.bounds.t_max),
    ("lifting.pi_star", "uncertified", lambda res: 0 if res.bound_certified else 1),
    ("regions.lifting_region", "pieces", lambda res: len(res.pieces)),
    ("covering.covering_decision", "fragments", lambda res: len(res.fragments)),
    ("geom.poly_equal", "true", lambda res: 1 if res else 0),
)


def metric_specs() -> list[dict]:
    """Every per-layer metric the traced run reports, in output order."""
    specs = []
    for mod, attr in TRACED:
        specs.append({"name": f"{mod}.{attr}.calls", "unit": "count", "better": "lower"})
        specs.append({"name": f"{mod}.{attr}.self_s", "unit": "s", "better": "lower"})
    for mod in MODULES:
        specs.append({"name": f"{mod}.self_s", "unit": "s", "better": "lower"})
    for key, count, _ in COUNTS:
        if count == "true":
            specs.append({"name": f"{key}.true_ratio", "unit": "ratio", "better": "higher"})
        else:
            specs.append({"name": f"{key}.{count}", "unit": "count", "better": "lower"})
    specs.append({"name": "trace.overhead_ms_per_op", "unit": "ms", "better": "lower"})
    specs.append({"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"})
    return specs


class Tracer:
    def __init__(self) -> None:
        self.keys = [f"{mod}.{attr}" for mod, attr in TRACED]
        self.span_key = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts = {(key, count): 0 for key, count, _ in COUNTS}
        self.missing: list[str] = []
        self._plan: Optional[list[tuple[object, str, object, Callable]]] = None

    def _wrap(self, idx: int, fn: Callable, counters: list) -> Callable:
        keys, parents = self.span_key, self.span_parent
        starts, ends, stack, counts = self.span_start, self.span_end, self.stack, self.counts

        def traced(*args, **kwargs):
            sid = len(starts)
            keys.append(idx)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            for ckey, get in counters:
                try:
                    counts[ckey] += get(result)
                except (AttributeError, TypeError, IndexError):
                    pass  # the return value no longer carries this count
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function that exists in the loaded liftgeo."""
        if self._plan is None:
            self._plan = self._make_plan()
        for owner, name, _, wrapper in self._plan:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig, _ in reversed(self._plan or ()):
            setattr(owner, name, orig)

    def _make_plan(self) -> list[tuple[object, str, object, Callable]]:
        mods = {name: m for name, m in sys.modules.items() if name == "liftgeo" or name.startswith("liftgeo.")}
        plan = []
        for idx, (mod, attr) in enumerate(TRACED):
            key = self.keys[idx]
            owner = mods.get(f"liftgeo.{mod}")
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            orig = getattr(owner, path[-1], None) if owner is not None else None
            if orig is None:
                self.missing.append(key)
                continue
            counters = [((k, c), get) for k, c, get in COUNTS if k == key]
            wrapper = self._wrap(idx, orig, counters)
            if len(path) > 1:
                plan.append((owner, path[-1], orig, wrapper))
                continue
            for m in mods.values():
                for name, value in vars(m).items():
                    if value is orig:
                        plan.append((m, name, orig, wrapper))
        return plan

    def metrics(self, traced_s: float, plain_s: float, twins: int) -> dict[str, float]:
        """Per-layer metrics; the overhead compares the ``twins`` operations
        that ran both traced (``traced_s`` in all) and plain (``plain_s``)."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.keys)
        self_s = [0.0] * len(self.keys)
        for i in range(n):
            k = self.span_key[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
        out: dict[str, float] = {}
        for k, key in enumerate(self.keys):
            out[f"{key}.calls"] = calls[k]
            out[f"{key}.self_s"] = self_s[k]
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(s for key, s in zip(self.keys, self_s) if key.startswith(mod + "."))
        for key, count, _ in COUNTS:
            value = self.counts[(key, count)]
            if count == "true":
                n_calls = calls[self.keys.index(key)]
                out[f"{key}.true_ratio"] = value / n_calls if n_calls else 0.0
            else:
                out[f"{key}.{count}"] = value
        out["trace.overhead_ms_per_op"] = 1000 * (traced_s - plain_s) / twins if twins else 0.0
        out["trace.overhead_ratio"] = (traced_s - plain_s) / plain_s if plain_s else 0.0
        return out
