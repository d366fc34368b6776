"""Span tracing of disklab's public stage functions, installed at runtime.

``Tracer.install()`` wraps every function named in ``LAYERS`` in each
``disklab`` module namespace that binds it (``pipeline`` imports most stage
functions by name, so patching the defining module alone would miss those
calls).  Each call records a span ``(id, parent, op, name, start, end, ok)``
in memory, where ``op`` is ``(phase, sequence number, label)`` of the
benchmark operation it ran under; ``write()`` dumps them as JSON lines when the run ends.  Size
counters are read from return values and file sizes at the same
boundaries.  ``uninstall()`` puts the original objects back, so untraced
passes run the unmodified program.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from importlib import import_module

LAYERS = {
    "pipeline": [
        "read_json", "write_json", "canonical_digest",
        "cli_reduce", "cli_solve", "cli_verify", "cli_lift", "cli_render",
    ],
    "arrangements": [
        "DiskInstance.from_dict", "DiskInstance.to_dict", "unit_disk_graph",
        "complement_regions", "filled_triangles", "edge_crossing_parities",
        "separation", "verify_isolation", "verify_acc", "verify_multiterminal_cut",
    ],
    "gadgets": [
        "Snapper.snap_point", "check_structure", "build_isolation_instance",
        "build_acc_instance", "build_udmc_instance", "lift_fence_to_edges",
    ],
    "geometry": ["compute_params", "check_constraints"],
    "gridembed": [
        "grid_embed", "search_minimal_drawing", "compact_drawing",
        "check_drawing", "locate_face",
    ],
    "graphs": [
        "reduce_pmc_to_subdivision", "subdivision_solution_ok",
        "multiterminal_solution_ok",
    ],
    "solvers": [
        "brute_min_multiterminal", "brute_min_subdivision", "brute_min_fvs",
        "brute_min_isolation", "brute_min_isolation_two_points", "brute_min_acc",
        "min_terminal_pair_cut", "multiterminal_cut_lower_bound",
    ],
    "render": ["svg_for_instance", "svg_for_embedding"],
    "corpus": ["seeded_planar_graphs", "seeded_multiterminal_instances"],
}

FUNCTIONS = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

# candidate checks a brute-force solver makes, one per subset it tries
CHECKERS = {
    "graphs.multiterminal_solution_ok",
    "graphs.subdivision_solution_ok",
    "arrangements.complement_regions",
    "arrangements.verify_isolation",
}

COUNTERS = [
    "arrangements.udg_disks", "arrangements.udg_edges", "arrangements.nerve_triangles",
    "gadgets.disks_synthesized", "solvers.subsets_tried", "solvers.hit_ratio",
    "pipeline.bytes_read", "pipeline.bytes_written", "render.svg_bytes",
]


def _count_udg(c, udg, args, kwargs):
    c["arrangements.udg_disks"] += udg.n
    c["arrangements.udg_edges"] += len(udg.edges)


def _count_triangles(c, tris, args, kwargs):
    c["arrangements.nerve_triangles"] += len(tris)


def _count_disks(c, art, args, kwargs):
    c["gadgets.disks_synthesized"] += len(art.instance.disks)


def _count_read(c, _, args, kwargs):
    c["pipeline.bytes_read"] += os.path.getsize(args[0])


def _count_written(c, _, args, kwargs):
    c["pipeline.bytes_written"] += os.path.getsize(args[1])


def _count_svg(c, svg, args, kwargs):
    c["render.svg_bytes"] += len(svg.encode("utf-8"))


ON_RETURN = {
    "arrangements.unit_disk_graph": _count_udg,
    "arrangements.filled_triangles": _count_triangles,
    "gadgets.build_isolation_instance": _count_disks,
    "gadgets.build_acc_instance": _count_disks,
    "gadgets.build_udmc_instance": _count_disks,
    "pipeline.read_json": _count_read,
    "pipeline.write_json": _count_written,
    "render.svg_for_instance": _count_svg,
    "render.svg_for_embedding": _count_svg,
}


class Tracer:
    def __init__(self):
        self.spans = []            # (id, parent, op, name, start, end, ok)
        self.stack = []
        self.phase = "setup"       # "setup" or the traced pass number
        self.op = None             # id shared by every span of one operation
        self.counters = defaultdict(lambda: defaultdict(int))   # phase -> name -> n
        self._next = 0
        self._patches = []         # (owner, attribute, original object)
        self.t0 = time.perf_counter()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        on_return = ON_RETURN.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append((sid, parent, tracer.op, name, start, end, ok))
            if on_return is not None:
                on_return(tracer.counters[tracer.phase], result, args, kwargs)
            return result

        return traced

    def operation(self, op_id, name, call):
        """Run ``call`` as one operation: a root span every layer span of
        the call hangs under, all sharing ``op_id``."""
        self.op = op_id
        try:
            return self._wrap(name, call)()
        finally:
            self.op = None

    # -- installation -------------------------------------------------------

    def install(self):
        loaded = [m for k, m in list(sys.modules.items())
                  if k == "disklab" or k.startswith("disklab.")]
        for module, names in LAYERS.items():
            mod = import_module(f"disklab.{module}")
            for fn in names:
                full = f"{module}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    owner = getattr(mod, cls_name)
                    raw = owner.__dict__[meth]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self._wrap(full, raw.__func__))
                    else:
                        patched = self._wrap(full, raw)
                    setattr(owner, meth, patched)
                    self._patches.append((owner, meth, raw))
                    continue
                orig = getattr(mod, fn)
                if getattr(orig, "__module__", None) != f"disklab.{module}":
                    raise RuntimeError(f"{full} is not defined in disklab.{module}")
                wrapper = self._wrap(full, orig)
                for m in loaded + [mod]:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- aggregation --------------------------------------------------------

    def phase_table(self):
        """phase -> {function: [self seconds, calls]} plus derived counters."""
        children = defaultdict(float)
        info = {}
        for sid, parent, op, name, start, end, ok in self.spans:
            info[sid] = (parent, name)
            if parent >= 0:
                children[parent] += end - start
        tables = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        derived = defaultdict(lambda: defaultdict(int))
        for sid, parent, op, name, start, end, ok in self.spans:
            phase = "setup" if op is None or op[0] == "setup" else op[0]
            row = tables[phase][name]
            row[0] += (end - start) - children[sid]
            row[1] += 1
            if ".brute_" in name and ok:
                derived[phase]["optima"] += 1
            if name in CHECKERS:
                p = parent
                while p >= 0:
                    if ".brute_" in info[p][1]:
                        derived[phase]["solvers.subsets_tried"] += 1
                        break
                    p = info[p][0]
        return tables, derived

    def layer_metrics(self):
        """Per wrapped function ``self_s`` and ``calls``, and the size
        counters, each for one setup plus the median traced pass."""
        tables, derived = self.phase_table()
        passes = sorted(p for p in set(tables) | set(self.counters) if p != "setup")

        def setup_plus_median(get):
            per_pass = [get(p) for p in passes] or [0]
            return get("setup") + statistics.median(per_pass)

        out = {}
        for name in FUNCTIONS:
            out[f"{name}.self_s"] = setup_plus_median(
                lambda p: tables[p][name][0] if name in tables.get(p, {}) else 0.0)
            out[f"{name}.calls"] = setup_plus_median(
                lambda p: tables[p][name][1] if name in tables.get(p, {}) else 0)
        for name in COUNTERS:
            if name == "solvers.hit_ratio":
                continue
            if name == "solvers.subsets_tried":
                out[name] = setup_plus_median(lambda p: derived[p][name])
            else:
                out[name] = setup_plus_median(lambda p: self.counters[p][name])
        optima = setup_plus_median(lambda p: derived[p]["optima"])
        tried = out["solvers.subsets_tried"]
        out["solvers.hit_ratio"] = optima / tried if tried else 0.0
        return out

    def write(self, path, counters):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end, ok in self.spans:
                fh.write(json.dumps({
                    "kind": "span", "id": sid, "parent": parent,
                    "op": None if op is None else f"{op[0]}:{op[1]}",
                    "label": None if op is None else op[2],
                    "name": name, "start": start - self.t0, "end": end - self.t0,
                    "ok": ok,
                }) + "\n")
            fh.write(json.dumps({"kind": "counters", "counters": counters}) + "\n")
