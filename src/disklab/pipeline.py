"""File-level orchestration: reductions with provenance records, certificate
checking with process exit codes, ground-truth solving, solution lifting, and
SVG rendering.

Everything here moves JSON between files and delegates the substance to the
owning modules.  Exit-code convention, shared by all verbs:

* 0 — accepted / succeeded,
* 1 — well-formed but rejected (failed verification, budget overrun,
  restriction violation, solver refusal),
* 2 — malformed input (unparseable files, schema violations, out-of-range
  ids, digest mismatches).

Certificate files are ``{"problem": ..., "candidate": [...], "budget": n?}``;
solver outputs use ``witness`` instead of ``candidate`` and both spellings
are accepted everywhere.  All outputs are deterministic: JSON is written
with sorted keys and instance digests are SHA-256 over the compact
canonical encoding.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .arrangements import (
    DiskInstance,
    VerificationError,
    normalize_edge_list,
    verify_acc,
    verify_isolation,
    verify_multiterminal_cut,
)
from .gadgets import (
    SynthesisError,
    build_acc_instance,
    build_isolation_instance,
    build_udmc_instance,
    lift_fence_to_edges,
    toy_edge_budget,
)
from .geometry import (
    ParamSet,
    check_constraints,
    compute_params,
    min_grid_angle_exceeds,
    min_grid_line_point_distance_sq,
    rational_to_str,
)
from .graphs import (
    MultiterminalInstance,
    PlanarEmbeddedGraph,
    SolutionBackMap,
    StructureError,
    SubdivisionInstance,
    Vertex,
    components,
    lift_subdivision_solution,
    multiterminal_solution_ok,
    reduce_pmc_to_subdivision,
    subdivision_solution_ok,
)
from .gridembed import DrawingError, GridEmbedding, grid_embed
from .render import svg_for_embedding, svg_for_instance
from .solvers import (
    OptimumCertificate,
    SolverCapExceeded,
    brute_min_acc,
    brute_min_fvs,
    brute_min_isolation,
    brute_min_isolation_two_points,
    brute_min_multiterminal,
    brute_min_subdivision,
    min_terminal_pair_cut,
    multiterminal_cut_lower_bound,
)

MALFORMED_ERRORS = (
    VerificationError,
    StructureError,
    SynthesisError,
    DrawingError,
    KeyError,
    TypeError,
    ValueError,
    OSError,
    json.JSONDecodeError,
)

class PipelineError(ValueError):
    """Malformed pipeline input (schema, digest, unknown kind)."""


class Rejected(RuntimeError):
    """Well-formed input that fails a restriction or a verification."""


# ---------------------------------------------------------------------------
# JSON plumbing
# ---------------------------------------------------------------------------

def canonical_digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise PipelineError(f"{path}: expected a JSON object")
    return data


def write_json(obj, path) -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2)`` and a newline.

    ``indent`` selects json's pure-Python encoder, which is slow on a large
    instance, so the entries of a top-level ``disks`` list are written from
    a template (:func:`_disk_entry`) with C-encoded strings; everything else
    goes through json's encoder.  Nothing is held as one string."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(obj, dict) and type(obj.get("disks")) is list \
                and all(type(k) is str for k in obj):
            fh.write("{")
            for n, key in enumerate(sorted(obj)):
                fh.write(("," if n else "") + "\n  " + encode_basestring_ascii(key) + ": ")
                if key == "disks" and obj[key]:
                    fh.write("[")
                    fh.writelines(
                        ("," if m else "") + "\n    " + _disk_entry(e)
                        for m, e in enumerate(obj[key]))
                    fh.write("\n  ]")
                else:
                    fh.write(json.dumps(obj[key], sort_keys=True, indent=2).replace("\n", "\n  "))
            fh.write("\n}")
        else:
            json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _disk_entry(e) -> str:
    """The text ``json.dumps`` with ``indent=2`` gives an entry of a
    top-level ``disks`` list.  An entry ``{"c": [x, y], "prov": [...]}``
    with string coordinates and string or int tags is filled into a
    template; any other value is left to json (raw newlines only ever
    separate items, since strings escape theirs, so indenting the text
    means rewriting its newlines)."""
    if type(e) is dict and len(e) == 2:
        c, prov = e.get("c"), e.get("prov")
        if type(c) is list and len(c) == 2 and type(prov) is list \
                and type(c[0]) is str and type(c[1]) is str:
            tags = []
            for v in prov:
                if type(v) is str:
                    tags.append(encode_basestring_ascii(v))
                elif type(v) is int:
                    tags.append(int.__repr__(v))
                else:
                    break
            else:
                prov_text = ("[\n        " + ",\n        ".join(tags) + "\n      ]"
                             if tags else "[]")
                return ('{\n      "c": [\n        ' + encode_basestring_ascii(c[0])
                        + ",\n        " + encode_basestring_ascii(c[1])
                        + '\n      ],\n      "prov": ' + prov_text + "\n    }")
    return json.dumps(e, sort_keys=True, indent=2).replace("\n", "\n    ")


def certificate_candidate(cert: dict):
    if "candidate" in cert:
        return cert["candidate"]
    if "witness" in cert:
        return cert["witness"]
    raise PipelineError("certificate carries neither 'candidate' nor 'witness'")


# ---------------------------------------------------------------------------
# provenance records
# ---------------------------------------------------------------------------

@dataclass
class ReductionRecord:
    """What a reduction produced and how its elements map back.

    The three tables are total over the source instance: every source edge
    appears in ``edges``, every source vertex in ``vertices`` and every
    source terminal/marked point in ``terminals``.  Values are target
    element descriptors (disk-id lists, face ids, point coordinates) whose
    shape depends on the kind; ``lift`` below is the authoritative reader.
    """

    kind: str
    source_digest: str
    target_digest: str
    params: Optional[ParamSet]
    edges: Dict[str, object]
    vertices: Dict[str, object]
    terminals: Dict[str, object]
    notes: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "source_digest": self.source_digest,
            "target_digest": self.target_digest,
            "params": self.params.as_dict() if self.params is not None else None,
            "edges": self.edges,
            "vertices": self.vertices,
            "terminals": self.terminals,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ReductionRecord":
        kind = str(d["kind"])
        if kind not in REDUCTIONS:
            raise PipelineError(f"unknown reduction kind {kind!r}")
        params = d.get("params")
        return cls(
            kind=kind,
            source_digest=str(d["source_digest"]),
            target_digest=str(d["target_digest"]),
            params=ParamSet.from_dict(params) if params else None,
            edges=dict(d["edges"]),
            vertices=dict(d["vertices"]),
            terminals=dict(d["terminals"]),
            notes=dict(d.get("notes", {})),
        )


def _check_total(record_table: Dict[str, object], wanted: Iterable, what: str) -> None:
    missing = [k for k in (str(x) for x in wanted) if k not in record_table]
    if missing:
        raise PipelineError(f"record {what} table misses {missing}")


# ---------------------------------------------------------------------------
# graph-shaped inputs
# ---------------------------------------------------------------------------

def plain_graph_from_dict(d: dict) -> Tuple[List[Vertex], List[Tuple[Vertex, Vertex]], Optional[dict]]:
    """Vertices/edges (+ optional drawn coords) of an unembedded graph file."""
    vertices = list(d["vertices"])
    edges = [(e[0], e[1]) for e in d["edges"]]
    vset = set(vertices)
    if len(vset) != len(vertices):
        raise StructureError("duplicate vertex ids")
    for (u, w) in edges:
        if u not in vset or w not in vset:
            raise PipelineError(f"edge {(u, w)!r} uses an unknown vertex")
    coords = d.get("coords")
    if coords is not None:
        coords = {k: (int(x), int(y)) for k, (x, y) in dict(coords).items()}
        if set(coords) != set(str(v) for v in vertices):
            raise PipelineError("coords must cover exactly the vertex set")
    return vertices, edges, coords


def embed_plain_graph(vertices, edges) -> GridEmbedding:
    """Deterministic straight-line grid drawing of a plain (connected,
    planar, simple) graph: take any combinatorial embedding and hand it to
    the grid drawer."""
    if not vertices:
        raise Rejected("graph has no vertices")
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    if len(edges) != g.number_of_edges() or any(u == w for u, w in edges):
        raise Rejected("graph must be simple for automatic drawing")
    if not nx.is_connected(g):
        raise Rejected("graph is disconnected: supply explicit 'coords'")
    ok, emb = nx.check_planarity(g)
    if not ok:
        raise Rejected("graph is not planar")
    eid_of = {}
    for i, (u, w) in enumerate(edges):
        eid_of[(u, w)] = i
        eid_of[(w, u)] = i
    rotation = {
        v: [eid_of[(v, nb)] for nb in emb.neighbors_cw_order(v)] for v in vertices
    }
    peg = PlanarEmbeddedGraph.from_edge_rotation(vertices, edges, rotation)
    return grid_embed(peg)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _reduce_pmc(src: dict, mode: str, overrides) -> Tuple[dict, dict]:
    mti = MultiterminalInstance.from_dict(src)
    try:
        red = reduce_pmc_to_subdivision(mti)
    except StructureError as exc:
        raise Rejected(str(exc)) from exc
    target = red.instance.to_dict()
    return target, dict(
        params=None,
        edges={str(e): list(frags) for e, frags in red.back.pairing.items()},
        vertices={str(v): f for v, f in red.vertex_face.items()},
        terminals={str(t): red.instance.terminals[str(t)] for t in mti.terminals},
    )


def _isolation_params(emb: GridEmbedding, mode: str, overrides: Dict[str, Fraction]) -> ParamSet:
    if mode == "toy":
        base = compute_params(emb.grid_size, "toy", overrides)
        budget = toy_edge_budget(emb, base)
        return compute_params(
            emb.grid_size, "toy", {**overrides, "c_edge": Fraction(budget)})
    return compute_params(emb.grid_size, "sound", overrides)


def _reduce_subdivision(src: dict, mode: str, overrides) -> Tuple[dict, dict]:
    sub = SubdivisionInstance.from_dict(src)
    emb = grid_embed(sub.graph)
    params = _isolation_params(emb, mode, overrides)
    report = check_constraints(params)
    if mode == "sound" and not report.ok:
        raise Rejected("constraints failed: " + ", ".join(report.failing()))
    art = build_isolation_instance(sub, emb, params=params, mode=mode)
    target = art.instance.to_dict()
    return target, dict(
        params=params,
        edges={str(e): list(ids) for e, ids in art.wall_ids.items()},
        vertices={str(v): list(ids) for v, ids in art.vertex_ids.items()},
        terminals={
            pid: [rational_to_str(x), rational_to_str(y)]
            for pid, (x, y) in art.instance.points.items()
        },
        notes={"grid_size": emb.grid_size, "constraints_ok": report.ok},
    )


def _chain_radius(overrides) -> Fraction:
    """The disk radius of the ACC and UDMC chains: ``--r``, default 1/10."""
    r = overrides.get("r", Fraction(1, 10))
    if r <= 0:
        raise ValueError("parameters must be positive")
    return r


def _reduce_fvs(src: dict, mode: str, overrides) -> Tuple[dict, dict]:
    r = _chain_radius(overrides)
    vertices, edges, coords = plain_graph_from_dict(src)
    degree: Dict[object, int] = {}
    for (u, w) in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[w] = degree.get(w, 0) + 1
    worst = max(degree.values(), default=0)
    if worst > 4:
        v = max(degree, key=degree.get)
        raise Rejected(
            f"vertex {v!r} has degree {worst}; this reduction accepts maximum degree 4")
    if coords is None:
        emb = embed_plain_graph(vertices, edges)
        coords = {str(v): emb.coords[v] for v in vertices}
    placed = {v: tuple(coords[str(v)]) for v in vertices}
    art = build_acc_instance(vertices, edges, placed, r=r)
    target = art.instance.to_dict()
    chain_ids: Dict[str, List[int]] = {str(e): [] for e in range(len(edges))}
    for i, tag in enumerate(art.instance.tags):
        if tag and tag[0] == "conn":
            chain_ids[str(tag[1])].append(i)
    return target, dict(
        params=None,
        edges=chain_ids,
        vertices={str(v): art.hub_of_vertex[v] for v in vertices},
        terminals={},
        notes={"r": rational_to_str(r), "cycle_rank": art.cycle_rank,
               "edge_ends": {str(e): [str(u), str(w)] for e, (u, w) in enumerate(edges)}},
    )


def _reduce_mc(src: dict, mode: str, overrides) -> Tuple[dict, dict]:
    r = _chain_radius(overrides)
    mti = MultiterminalInstance.from_dict(src)
    emb = grid_embed(mti.graph)
    art = build_udmc_instance(mti, emb, r=r)
    target = art.instance.to_dict()
    edges_table: Dict[str, object] = {}
    for eid, (u, w) in enumerate(mti.graph.edges):
        lanes = [k for k in sorted(art.lane_ids) if k[0] == eid]
        edges_table[str(eid)] = {
            "ends": [str(u), str(w)],
            "lanes": [list(art.lane_ids[k]) for k in lanes],
            "cut_pairs": [list(art.lane_cut_edge[k]) for k in lanes],
        }
    return target, dict(
        params=None,
        edges=edges_table,
        vertices={
            str(v): {"hub": art.hub_of_vertex[v], "sigma": list(art.sigma_ids[v])}
            for v in mti.graph.vertices
        },
        terminals={str(t): art.hub_of_vertex[t] for t in mti.terminals},
        notes={"r": rational_to_str(r), "grid_size": emb.grid_size},
    )


def cli_reduce(
    kind: str,
    input_path,
    out_path,
    record_path=None,
    mode: str = "sound",
    overrides: Optional[Dict[str, Fraction]] = None,
) -> Tuple[int, List[str]]:
    """Run one reduction end to end; writes the target instance and its
    provenance record (default: target path + '.record.json')."""
    overrides = dict(overrides or {})
    try:
        src = read_json(input_path)
        if kind not in REDUCTIONS:
            raise PipelineError(f"unknown reduction kind {kind!r}")
        target, tables = REDUCTIONS[kind].reduce(src, mode, overrides)
        record = ReductionRecord(
            kind=kind,
            source_digest=canonical_digest(src),
            target_digest=canonical_digest(target),
            **tables,
        )
        _check_total(record.terminals, src.get("terminals", []), "terminal")
        _check_total(record.edges, range(len(src["edges"])), "edge")
        _check_total(record.vertices, src["vertices"], "vertex")
    except (Rejected, SynthesisError) as exc:
        return 1, [f"rejected: {exc}"]
    except MALFORMED_ERRORS as exc:
        return 2, [f"malformed: {exc}"]
    if record_path is None:
        record_path = str(out_path) + ".record.json"
    write_json(target, out_path)
    write_json(record.to_dict(), record_path)
    return 0, [f"wrote {out_path}", f"wrote {record_path}"]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _verify_graph_mc(src: dict, candidate, budget) -> Tuple[bool, List[str]]:
    mti = MultiterminalInstance.from_dict(src)
    removed = sorted(set(int(e) for e in candidate))
    if removed and not (0 <= removed[0] and removed[-1] < len(mti.graph.edges)):
        raise VerificationError("certificate names an unknown edge id")
    reasons = []
    mass = sum(mti.weight(e) for e in removed)
    if budget is not None and mass > budget:
        reasons.append(f"budget: certificate weighs {mass}, cap {budget}")
    separated = multiterminal_solution_ok(mti, removed)
    if not separated:
        reasons.append("two terminals stay connected")
    return separated and not reasons, reasons or [f"separated at weight {mass}"]


def _verify_graph_subdivision(src: dict, candidate, budget) -> Tuple[bool, List[str]]:
    sub = SubdivisionInstance.from_dict(src)
    kept_set = set(int(e) for e in candidate)
    kept = sorted(kept_set)
    if kept and not (0 <= kept[0] and kept[-1] < len(sub.graph.edges)):
        raise VerificationError("certificate names an unknown edge id")
    reasons = []
    groups = sub.groups or [[e] for e in range(len(sub.graph.edges))]
    mass = 2 * sum(1 for grp in groups if kept_set.issuperset(grp))
    if budget is not None and mass > budget:
        reasons.append(f"budget: certificate has mass {mass}, cap {budget}")
    separated = subdivision_solution_ok(sub, kept)
    if not separated:
        reasons.append("two marked faces stay in one region")
    return separated and not reasons, reasons or [f"separated at mass {mass}"]


def _disk_report(report) -> Tuple[bool, List[str]]:
    return report.ok, report.lines()


# problem -> check of (instance dict, candidate, budget) giving (ok, lines).
# Entries call the stage functions by name at call time (see REDUCTIONS).
VERIFIERS = {
    "isolation": lambda d, candidate, budget: _disk_report(
        verify_isolation(DiskInstance.from_dict(d), candidate, budget)),
    "acc": lambda d, candidate, budget: _disk_report(
        verify_acc(DiskInstance.from_dict(d), candidate, budget)),
    "udmc": lambda d, candidate, budget: _disk_report(
        verify_multiterminal_cut(DiskInstance.from_dict(d), candidate, budget)),
    "mc": _verify_graph_mc,
    "subdivision": _verify_graph_subdivision,
}


def cli_verify(problem: str, instance_path, certificate_path) -> Tuple[int, List[str]]:
    """Check a certificate file; returns (exit code, human-readable lines)."""
    try:
        inst_dict = read_json(instance_path)
        cert = read_json(certificate_path)
        candidate = certificate_candidate(cert)
        budget = cert.get("budget")
        budget = int(budget) if budget is not None else None
        if problem not in VERIFIERS:
            raise PipelineError(f"unknown problem {problem!r}")
        ok, lines = VERIFIERS[problem](inst_dict, candidate, budget)
        return (0 if ok else 1), lines
    except MALFORMED_ERRORS as exc:
        return 2, [f"malformed: {exc}"]


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def _solve_isolation(d: dict, caps: dict) -> OptimumCertificate:
    inst = DiskInstance.from_dict(d)
    if len(inst.points) == 2:
        return brute_min_isolation_two_points(inst)
    return brute_min_isolation(inst, **caps)


def _solve_udmc_bound(d: dict, caps: dict) -> OptimumCertificate:
    return OptimumCertificate(
        problem="multiterminal-cut-bound",
        optimum=multiterminal_cut_lower_bound(DiskInstance.from_dict(d)),
        witness=[],
        method="isolating-cuts",
        detail={"lower_bound_only": True},
    )


# problem -> solver of (instance dict, subset caps), called like VERIFIERS
SOLVERS = {
    "mc": lambda d, caps: brute_min_multiterminal(MultiterminalInstance.from_dict(d)),
    "subdivision": lambda d, caps: brute_min_subdivision(SubdivisionInstance.from_dict(d)),
    "fvs": lambda d, caps: brute_min_fvs(*plain_graph_from_dict(d)[:2]),
    "isolation": _solve_isolation,
    "acc": lambda d, caps: brute_min_acc(DiskInstance.from_dict(d), **caps),
    "terminal-pair-cut": lambda d, caps: min_terminal_pair_cut(DiskInstance.from_dict(d)),
    "udmc-bound": _solve_udmc_bound,
}


def cli_solve(
    problem: str, instance_path, out_path, cap_subset: Optional[int] = None
) -> Tuple[int, List[str]]:
    """Solve to optimality (or refuse); writes an OptimumCertificate JSON."""
    try:
        inst_dict = read_json(instance_path)
        if problem not in SOLVERS:
            raise PipelineError(f"unknown problem {problem!r}")
        cert = SOLVERS[problem](
            inst_dict, {} if cap_subset is None else {"max_subset": cap_subset})
    except SolverCapExceeded as exc:
        return 1, [f"refused: {exc}"]
    except MALFORMED_ERRORS as exc:
        return 2, [f"malformed: {exc}"]
    out = {
        "problem": cert.problem,
        "optimum": cert.optimum,
        "witness": cert.witness,
        "method": cert.method,
        "detail": cert.detail,
    }
    write_json(out, out_path)
    return 0, [f"optimum {cert.optimum} with witness of size {len(cert.witness)}"]


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def _lift_pmc(record, src, tgt, cert) -> Tuple[List[int], dict]:
    sub = SubdivisionInstance.from_dict(tgt)
    detail = cert.get("detail") or {}
    if "kept_edges" in detail:
        kept = [int(e) for e in detail["kept_edges"]]
    else:
        kept = [int(e) for e in certificate_candidate(cert)]
    if not subdivision_solution_ok(sub, kept):
        raise Rejected("target solution does not separate the marked faces")
    pairing = {int(e): [int(f) for f in frags] for e, frags in record.edges.items()}
    lifted = lift_subdivision_solution(SolutionBackMap(pairing=pairing), kept)
    mti = MultiterminalInstance.from_dict(src)
    if not multiterminal_solution_ok(mti, lifted):
        raise Rejected("lifted edge set does not separate the source terminals")
    return lifted, {"kept_edges": sorted(set(kept))}


def _lift_isolation(record, src, tgt, cert) -> Tuple[List[int], dict]:
    inst = DiskInstance.from_dict(tgt)
    chosen = [int(i) for i in certificate_candidate(cert)]
    report = verify_isolation(inst, chosen, cert.get("budget"))
    if not report.ok:
        raise Rejected("target solution rejected: " + "; ".join(report.lines()))
    kept = lift_fence_to_edges(inst, chosen)
    sub = SubdivisionInstance.from_dict(src)
    if not subdivision_solution_ok(sub, kept):
        raise Rejected("lifted edge set does not separate the marked faces")
    c_edge = int(inst.meta["c_edge"])
    return kept, {
        "k1": len(set(chosen)),
        "c_edge": c_edge,
        "floor_bound": len(set(chosen)) // c_edge,
    }


def _lift_acc(record, src, tgt, cert) -> Tuple[List[str], dict]:
    inst = DiskInstance.from_dict(tgt)
    removed = [int(i) for i in certificate_candidate(cert)]
    report = verify_acc(inst, removed, cert.get("budget"))
    if not report.ok:
        raise Rejected("target solution rejected: " + "; ".join(report.lines()))
    hub_vertex = {int(h): v for v, h in record.vertices.items()}
    edge_ends = {int(e): ends for e, ends in record.notes["edge_ends"].items()}
    lifted = set()
    for i in removed:
        tag = inst.tags[i]
        if tag and tag[0] == "hub":
            lifted.add(hub_vertex[i])
        elif tag and tag[0] == "conn":
            # a chain deletion is dominated by deleting either endpoint hub
            lifted.add(edge_ends[int(tag[1])][0])
    vertices, edges, _ = plain_graph_from_dict(src)
    kept = [str(v) for v in vertices if str(v) not in lifted]
    kept_edges = [(str(u), str(w)) for u, w in edges
                  if str(u) not in lifted and str(w) not in lifted]
    comp = components(kept, kept_edges)
    if len(kept_edges) - len(comp) + len(set(comp.values())) != 0:
        raise Rejected("lifted vertex set leaves a cycle in the source graph")
    return sorted(lifted), {}


def _lift_udmc(record, src, tgt, cert) -> Tuple[List[int], dict]:
    inst = DiskInstance.from_dict(tgt)
    pairs = normalize_edge_list(certificate_candidate(cert))
    report = verify_multiterminal_cut(inst, pairs, cert.get("budget"))
    if not report.ok:
        raise Rejected("target solution rejected: " + "; ".join(report.reasons))
    removed = set(pairs)
    sigma_of = {}
    for v, entry in record.vertices.items():
        for i in entry["sigma"]:
            sigma_of[int(i)] = v
    lifted = []
    for e_str, entry in record.edges.items():
        ends = set(entry["ends"])
        severed = 0
        for lane in entry["lanes"]:
            lane_set = set(int(i) for i in lane)
            end_ids = {int(lane[0]), int(lane[-1])}
            for (i, j) in removed:
                internal = i in lane_set and j in lane_set
                attachment = (
                    (i in end_ids and sigma_of.get(j) in ends)
                    or (j in end_ids and sigma_of.get(i) in ends)
                )
                if internal or attachment:
                    severed += 1
                    break
        if severed == len(entry["lanes"]):
            lifted.append(int(e_str))
    lifted.sort()
    mti = MultiterminalInstance.from_dict(src)
    if not multiterminal_solution_ok(mti, lifted):
        raise Rejected("lifted edge set does not separate the source terminals")
    return lifted, {"weight": sum(mti.weight(e) for e in lifted)}


class Reduction(NamedTuple):
    # (source, mode, overrides) -> (target, the record's params, edges,
    # vertices, terminals and notes)
    reduce: Callable[[dict, str, Dict[str, Fraction]], Tuple[dict, dict]]
    lift: Callable[[ReductionRecord, dict, dict, dict], Tuple[list, dict]]
    problem: str   # problem of the lifted source solution


# kind -> its stages.  The private stage functions call the public ones by
# name at call time, so a wrapper installed on a module attribute sees them.
REDUCTIONS = {
    "pmc->subdivision": Reduction(_reduce_pmc, _lift_pmc, "multiterminal-cut"),
    "subdivision->isolation": Reduction(
        _reduce_subdivision, _lift_isolation, "face-separation"),
    "fvs->acc": Reduction(_reduce_fvs, _lift_acc, "feedback-vertex-set"),
    "mc->udmc": Reduction(_reduce_mc, _lift_udmc, "multiterminal-cut"),
}


def cli_lift(
    record_path, solution_path, source_path, target_path, out_path
) -> Tuple[int, List[str]]:
    """Map a verified target solution back to the source problem."""
    try:
        record = ReductionRecord.from_dict(read_json(record_path))
        src = read_json(source_path)
        tgt = read_json(target_path)
        if canonical_digest(src) != record.source_digest:
            raise PipelineError("source file does not match the record digest")
        if canonical_digest(tgt) != record.target_digest:
            raise PipelineError("target file does not match the record digest")
        cert = read_json(solution_path)
        lifted, detail = REDUCTIONS[record.kind].lift(record, src, tgt, cert)
    except Rejected as exc:
        return 1, [f"rejected: {exc}"]
    except MALFORMED_ERRORS as exc:
        return 2, [f"malformed: {exc}"]
    write_json(
        {"problem": REDUCTIONS[record.kind].problem, "candidate": lifted, "detail": detail},
        out_path,
    )
    return 0, [f"lifted solution of size {len(lifted)}"]


# ---------------------------------------------------------------------------
# rendering and reports
# ---------------------------------------------------------------------------

def cli_render(input_path, out_path, guides: bool = False) -> Tuple[int, List[str]]:
    try:
        data = read_json(input_path)
        if "disks" in data:
            svg = svg_for_instance(DiskInstance.from_dict(data), guides=guides)
        elif "coords" in data and "graph" in data:
            svg = svg_for_embedding(GridEmbedding.from_dict(data))
        else:
            raise PipelineError("file is neither a disk instance nor an embedding")
    except MALFORMED_ERRORS as exc:
        return 2, [f"malformed: {exc}"]
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    Path(out_path).write_text(svg, encoding="utf-8")
    return 0, [f"wrote {out_path}"]


def cli_check_params(
    n: int, mode: str = "sound", overrides: Optional[Dict[str, Fraction]] = None
) -> Tuple[int, dict]:
    params = compute_params(n, mode, dict(overrides or {}))
    report = check_constraints(params)
    payload = {
        "params": params.as_dict(),
        "ok": report.ok,
        "constraints": [
            {"name": name, "ok": passed, "detail": detail}
            for name, passed, detail in report.entries
        ],
    }
    return (0 if report.ok else 1), payload


def cli_lemma_oracle(n: int) -> dict:
    """Exhaustive grid facts for one grid size: the minimum squared
    line-to-off-line-point distance with its witness, and the minimum angle
    between grid lines through a common point compared against the
    drawing-perturbation threshold."""
    d2, (p, q, t) = min_grid_line_point_distance_sq(n)
    angle = min_grid_angle_exceeds(n)
    return {
        "n": n,
        "min_line_point_distance_sq": rational_to_str(d2),
        "distance_witness": {"line": [list(p), list(q)], "point": list(t)},
        "min_angle_tan": rational_to_str(angle.min_tan),
        "angle_threshold_tan": rational_to_str(angle.threshold_tan),
        "angle_exceeds_threshold": angle.ok,
        "angle_witness": {
            "apex": list(angle.witness[0]),
            "directions": [list(angle.witness[1]), list(angle.witness[2])],
        },
    }
