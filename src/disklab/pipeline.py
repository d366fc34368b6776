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

Certificate files are ``{"problem": ..., "candidate": [...], "budget": n?}``
(:func:`read_certificate`): the candidate is a JSON list of element ids and
the budget, if present and not null, a JSON integer.  Solver outputs carry
``witness`` instead of ``candidate``; where their ``detail`` holds
``kept_edges`` (the face-separation solver, whose witness lists group ids)
those edge ids are the candidate.  ``verify`` and ``lift`` read
certificates and check them with the same :data:`PROBLEMS` entry.  All
outputs are deterministic: JSON is written with sorted keys and instance
digests are SHA-256 over the compact canonical encoding.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .arrangements import (
    DiskInstance,
    VerificationError,
    json_ints,
    normalize_edge_list,
    verify_acc,
    verify_isolation,
    verify_multiterminal_cut,
)
from .corpus import rotation_graph
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
    SolutionBackMap,
    StructureError,
    SubdivisionInstance,
    Vertex,
    components,
    fvs_solution_ok,
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
    Disk instances are written from :func:`instance_json`'s text instead."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def instance_json(inst) -> Tuple[str, str]:
    """The file text and the canonical digest of ``d = inst.to_dict()``:
    ``json.dumps(d, sort_keys=True, indent=2) + "\\n"`` and
    ``canonical_digest(d)``.  A :class:`DiskInstance` whose tags are
    non-empty runs of ``str`` and ``int`` (every synthesized one) has its
    disks encoded in one pass over the integer centres, without ``d``: the
    text of all but a tag's last component is made once per run of disks
    that share them, and the compact entries are hashed a block at a time."""
    tags = inst.tags if isinstance(inst, DiskInstance) else ()
    # a bool or a float can equal an int, so a shared tag prefix stands for
    # one text only when every component is a str or an int
    if not (tags and all(tags) and {type(v) for tag in tags for v in tag} <= {str, int}):
        d = inst.to_dict()
        return json.dumps(d, sort_keys=True, indent=2) + "\n", canonical_digest(d)
    # the instance's dict with no disks; "disks" sorts first, so both texts
    # of this head open with its empty list
    head = DiskInstance(inst.radius, inst.centers.subset(()), (), inst.points, inst.params,
                        inst.meta).to_dict()
    text_open, compact_open = '{\n  "disks": [', '{"disks":['
    text_rest = json.dumps(head, sort_keys=True, indent=2)[len(text_open):]
    compact_rest = json.dumps(head, sort_keys=True, separators=(",", ":"))[len(compact_open):]
    xs, ys, den = inst.centers
    gcd, esc = math.gcd, encode_basestring_ascii
    digest = hashlib.sha256(compact_open.encode())
    blocks = []
    prefix = None
    for start in range(0, len(tags), 4096):    # never the whole compact text at once
        block = slice(start, start + 4096)
        texts, compacts = [], []
        for x, y, tag in zip(xs[block], ys[block], tags[block]):
            g, h = gcd(x, den), gcd(y, den)
            cx, cy = f"{x // g}/{den // g}", f"{y // h}/{den // h}"
            if tag[:-1] != prefix:
                prefix = tag[:-1]
                parts = [esc(v) if type(v) is str else int.__repr__(v) for v in prefix]
                lead = "".join(p + ",\n        " for p in parts)
                lead_compact = "".join(p + "," for p in parts)
            last = esc(last) if type(last := tag[-1]) is str else int.__repr__(last)
            texts.append(f'{{\n      "c": [\n        "{cx}",\n        "{cy}"\n      ],\n'
                         f'      "prov": [\n        {lead}{last}\n      ]\n    }}')
            compacts.append(f'{{"c":["{cx}","{cy}"],"prov":[{lead_compact}{last}]}}')
        digest.update((("," if start else "") + ",".join(compacts)).encode())
        blocks.append(",\n    ".join(texts))
    digest.update(compact_rest.encode())
    text = text_open + "\n    " + ",\n    ".join(blocks) + "\n  " + text_rest + "\n"
    return text, digest.hexdigest()


def read_certificate(cert: dict) -> Tuple[list, Optional[int]]:
    """The candidate and budget of a certificate.  A ``candidate`` comes
    first; a solver output's ``detail.kept_edges`` goes before its
    ``witness``."""
    detail = cert.get("detail")
    if "candidate" in cert:
        candidate = cert["candidate"]
    elif isinstance(detail, dict) and "kept_edges" in detail:
        candidate = detail["kept_edges"]
    elif "witness" in cert:
        candidate = cert["witness"]
    else:
        raise PipelineError("certificate carries neither 'candidate' nor 'witness'")
    if type(candidate) is not list:
        raise PipelineError("certificate candidate must be a JSON list")
    budget = cert.get("budget")
    if budget is not None and type(budget) is not int:
        raise PipelineError("certificate budget must be a JSON integer")
    return candidate, budget


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
    shape depends on the kind; the back-maps below are its authoritative
    readers.
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
    planar, simple) graph: take networkx's combinatorial embedding
    (:func:`~disklab.corpus.rotation_graph`) and hand it to the grid
    drawer."""
    if not vertices:
        raise Rejected("graph has no vertices")
    if len({frozenset(e) for e in edges}) != len(edges) or any(u == w for u, w in edges):
        raise Rejected("graph must be simple for automatic drawing")
    if len(set(components(vertices, edges).values())) != 1:
        raise Rejected("graph is disconnected: supply explicit 'coords'")
    try:
        peg = rotation_graph(vertices, edges)
    except ValueError as exc:    # not planar
        raise Rejected(str(exc)) from exc
    return grid_embed(peg)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _reduce_pmc(src: dict, mode: str, overrides) -> Tuple[SubdivisionInstance, dict]:
    mti = MultiterminalInstance.from_dict(src)
    try:
        red = reduce_pmc_to_subdivision(mti)
    except StructureError as exc:
        raise Rejected(str(exc)) from exc
    return red.instance, dict(
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


def _reduce_subdivision(src: dict, mode: str, overrides) -> Tuple[DiskInstance, dict]:
    sub = SubdivisionInstance.from_dict(src)
    emb = grid_embed(sub.graph)
    params = _isolation_params(emb, mode, overrides)
    report = check_constraints(params)
    if mode == "sound" and not report.ok:
        raise Rejected("constraints failed: " + ", ".join(report.failing()))
    art = build_isolation_instance(sub, emb, params)
    return art.instance, dict(
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


def _reduce_fvs(src: dict, mode: str, overrides) -> Tuple[DiskInstance, dict]:
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
    chain_ids: Dict[str, List[int]] = {str(e): [] for e in range(len(edges))}
    for i, tag in enumerate(art.instance.tags):
        if tag and tag[0] == "conn":
            chain_ids[str(tag[1])].append(i)
    return art.instance, dict(
        params=None,
        edges=chain_ids,
        vertices={str(v): art.hub_of_vertex[v] for v in vertices},
        terminals={},
        notes={"r": rational_to_str(r), "cycle_rank": art.cycle_rank,
               "edge_ends": {str(e): [str(u), str(w)] for e, (u, w) in enumerate(edges)}},
    )


def _reduce_mc(src: dict, mode: str, overrides) -> Tuple[DiskInstance, dict]:
    r = _chain_radius(overrides)
    mti = MultiterminalInstance.from_dict(src)
    emb = grid_embed(mti.graph)
    art = build_udmc_instance(mti, emb, r=r)
    edges_table: Dict[str, object] = {}
    for eid, (u, w) in enumerate(mti.graph.edges):
        lanes = [k for k in sorted(art.lane_ids) if k[0] == eid]
        edges_table[str(eid)] = {
            "ends": [str(u), str(w)],
            "lanes": [list(art.lane_ids[k]) for k in lanes],
            "cut_pairs": [list(art.lane_cut_edge[k]) for k in lanes],
        }
    return art.instance, dict(
        params=None,
        edges=edges_table,
        vertices={
            str(v): {"hub": art.hub_of_vertex[v], "sigma": list(art.sigma_ids[v])}
            for v in mti.graph.vertices
        },
        terminals={str(t): art.hub_of_vertex[t] for t in mti.terminals},
        notes={"r": rational_to_str(r), "grid_size": emb.grid_size},
    )


def _file_verb(verb):
    """The one exit mapping of the file verbs.  ``verb`` returns (exit code,
    lines, files to write as (payload, path) pairs) and the wrapped verb
    (exit code, lines).  An expected failure becomes its exit code and one
    prefixed line.  The files are written after, outside that mapping, so a
    failed write is not reported as malformed input: a string payload (an SVG
    or an :func:`instance_json` text) as it is, anything else as JSON."""
    @functools.wraps(verb)
    def run(*args, **kwargs) -> Tuple[int, List[str]]:
        try:
            code, lines, files = verb(*args, **kwargs)
        except SolverCapExceeded as exc:
            return 1, [f"refused: {exc}"]
        except (Rejected, SynthesisError) as exc:
            return 1, [f"rejected: {exc}"]
        except MALFORMED_ERRORS as exc:
            return 2, [f"malformed: {exc}"]
        for payload, path in files:
            if isinstance(payload, str):
                Path(path).parent.mkdir(parents=True, exist_ok=True)
                Path(path).write_text(payload, encoding="utf-8")
            else:
                write_json(payload, path)
        return code, lines
    return run


@_file_verb
def cli_reduce(kind: str, input_path, out_path, record_path=None, mode: str = "sound",
               overrides: Optional[Dict[str, Fraction]] = None):
    """Run one reduction end to end; writes the target instance and its
    provenance record (default: target path + '.record.json')."""
    src = read_json(input_path)
    if kind not in REDUCTIONS:
        raise PipelineError(f"unknown reduction kind {kind!r}")
    target, tables = REDUCTIONS[kind].reduce(src, mode, dict(overrides or {}))
    text, target_digest = instance_json(target)
    record = ReductionRecord(
        kind=kind,
        source_digest=canonical_digest(src),
        target_digest=target_digest,
        **tables,
    )
    _check_total(record.terminals, src.get("terminals", []), "terminal")
    _check_total(record.edges, range(len(src["edges"])), "edge")
    _check_total(record.vertices, src["vertices"], "vertex")
    if record_path is None:
        record_path = str(out_path) + ".record.json"
    return 0, [f"wrote {out_path}", f"wrote {record_path}"], [
        (text, out_path), (record.to_dict(), record_path)]


# ---------------------------------------------------------------------------
# problems: parse, verify, solve
# ---------------------------------------------------------------------------

def _verify_mc(mti: MultiterminalInstance, candidate, budget) -> Tuple[bool, List[str]]:
    removed = sorted(set(json_ints(candidate, "certificate")))
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


def _verify_subdivision(sub: SubdivisionInstance, candidate, budget) -> Tuple[bool, List[str]]:
    kept_set = set(json_ints(candidate, "certificate"))
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


def _verify_fvs(graph, candidate, budget) -> Tuple[bool, List[str]]:
    # vertex ids match by their string form: a lifted solution names them so
    vertices, edges, _ = graph
    by_name = {str(v): v for v in vertices}
    names = set(str(v) for v in candidate)
    if not names <= by_name.keys():
        raise VerificationError("certificate names an unknown vertex")
    reasons = []
    if budget is not None and len(names) > budget:
        reasons.append(f"budget: certificate removes {len(names)} vertices, cap {budget}")
    acyclic = fvs_solution_ok(vertices, edges, {by_name[n] for n in names})
    if not acyclic:
        reasons.append("a cycle survives the removal")
    return acyclic and not reasons, reasons or [f"acyclic after removing {len(names)} vertices"]


def _disk_report(report) -> Tuple[bool, List[str]]:
    return report.ok, report.lines()


def _solve_isolation(inst: DiskInstance) -> OptimumCertificate:
    if len(inst.points) == 2:
        return brute_min_isolation_two_points(inst)
    return brute_min_isolation(inst)


def _solve_udmc_bound(inst: DiskInstance) -> OptimumCertificate:
    return OptimumCertificate(
        problem="multiterminal-cut-bound",
        optimum=multiterminal_cut_lower_bound(inst),
        witness=[],
        method="isolating-cuts",
        detail={"lower_bound_only": True},
    )


class Problem(NamedTuple):
    parse: Callable[[dict], object]    # instance dict -> instance
    # (instance, candidate, budget or None) -> (ok, lines); None: no verify
    verify: Optional[Callable[[object, list, Optional[int]], Tuple[bool, List[str]]]] = None
    # instance -> optimum; None: no solve
    solve: Optional[Callable[[object], OptimumCertificate]] = None


def _disks(d: dict) -> DiskInstance:
    return DiskInstance.from_dict(d)


# problem -> its stages.  Like REDUCTIONS, the entries call the public stage
# functions and ``from_dict`` by name at call time.
PROBLEMS = {
    "mc": Problem(lambda d: MultiterminalInstance.from_dict(d), _verify_mc,
                  lambda mti: brute_min_multiterminal(mti)),
    "subdivision": Problem(lambda d: SubdivisionInstance.from_dict(d), _verify_subdivision,
                           lambda sub: brute_min_subdivision(sub)),
    "fvs": Problem(plain_graph_from_dict, _verify_fvs,
                   lambda graph: brute_min_fvs(graph[0], graph[1])),
    "isolation": Problem(
        _disks, lambda inst, c, b: _disk_report(verify_isolation(inst, c, b)), _solve_isolation),
    "acc": Problem(_disks, lambda inst, c, b: _disk_report(verify_acc(inst, c, b)),
                   lambda inst: brute_min_acc(inst)),
    "udmc": Problem(
        _disks, lambda inst, c, b: _disk_report(verify_multiterminal_cut(inst, c, b))),
    "terminal-pair-cut": Problem(_disks, solve=lambda inst: min_terminal_pair_cut(inst)),
    "udmc-bound": Problem(_disks, solve=_solve_udmc_bound),
}


def problems_with(verb: str) -> List[str]:
    """The problems that have a ``verb`` ("verify" or "solve") entry."""
    return [name for name, entry in PROBLEMS.items() if getattr(entry, verb) is not None]


def _problem(name: str, verb: str) -> Problem:
    if name not in problems_with(verb):
        raise PipelineError(f"unknown problem {name!r}")
    return PROBLEMS[name]


@_file_verb
def cli_verify(problem: str, instance_path, certificate_path):
    """Check a certificate file; exit 1 if it fails."""
    inst_dict = read_json(instance_path)
    candidate, budget = read_certificate(read_json(certificate_path))
    entry = _problem(problem, "verify")
    ok, lines = entry.verify(entry.parse(inst_dict), candidate, budget)
    return (0 if ok else 1), lines, []


@_file_verb
def cli_solve(problem: str, instance_path, out_path):
    """Solve to optimality (or refuse); writes an OptimumCertificate JSON."""
    inst_dict = read_json(instance_path)
    entry = _problem(problem, "solve")
    cert = entry.solve(entry.parse(inst_dict))
    out = {"problem": cert.problem, "optimum": cert.optimum, "witness": cert.witness,
           "method": cert.method, "detail": cert.detail}
    return 0, [f"optimum {cert.optimum} with witness of size {len(cert.witness)}"], [
        (out, out_path)]


# ---------------------------------------------------------------------------
# lifting: the back-maps of (record, source, target, verified target
# candidate) to (source candidate, detail)
# ---------------------------------------------------------------------------

def _back_pmc(record, mti, sub, kept) -> Tuple[List[int], dict]:
    pairing = {int(e): [int(f) for f in frags] for e, frags in record.edges.items()}
    lifted = lift_subdivision_solution(SolutionBackMap(pairing=pairing), kept)
    return lifted, {"kept_edges": sorted(set(kept))}


def _back_isolation(record, sub, inst, chosen) -> Tuple[List[int], dict]:
    k1 = len(set(chosen))
    c_edge = int(inst.meta["c_edge"])
    return lift_fence_to_edges(inst, chosen), {
        "k1": k1, "c_edge": c_edge, "floor_bound": k1 // c_edge}


def _back_acc(record, graph, inst, removed) -> Tuple[List[str], dict]:
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
    return sorted(lifted), {}


def _back_udmc(record, mti, inst, pairs) -> Tuple[List[int], dict]:
    removed = normalize_edge_list(pairs)
    sigma_of = {int(i): v for v, entry in record.vertices.items() for i in entry["sigma"]}

    def severed(lane, ends) -> bool:
        # a removed pair inside the lane, or joining a lane end to the
        # ring copies of the edge's end vertices
        ids, tips = set(int(i) for i in lane), {int(lane[0]), int(lane[-1])}
        return any((i in ids and j in ids) or (i in tips and sigma_of.get(j) in ends)
                   or (j in tips and sigma_of.get(i) in ends) for i, j in removed)

    lifted = sorted(int(e) for e, entry in record.edges.items()
                    if all(severed(lane, set(entry["ends"])) for lane in entry["lanes"]))
    return lifted, {"weight": sum(mti.weight(e) for e in lifted)}


class Reduction(NamedTuple):
    # (source, mode, overrides) -> (target instance, the record's params,
    # edges, vertices, terminals and notes)
    reduce: Callable[[dict, str, Dict[str, Fraction]], Tuple[object, dict]]
    back_map: Callable[[ReductionRecord, object, object, list], Tuple[list, dict]]
    source: str    # PROBLEMS entry of the source instance
    target: str    # PROBLEMS entry of the target instance
    label: str     # "problem" of the lifted certificate


# kind -> its stages.  The private stage functions call the public ones by
# name at call time, so a wrapper installed on a module attribute sees them.
REDUCTIONS = {
    "pmc->subdivision": Reduction(
        _reduce_pmc, _back_pmc, "mc", "subdivision", "multiterminal-cut"),
    "subdivision->isolation": Reduction(
        _reduce_subdivision, _back_isolation, "subdivision", "isolation", "face-separation"),
    "fvs->acc": Reduction(_reduce_fvs, _back_acc, "fvs", "acc", "feedback-vertex-set"),
    "mc->udmc": Reduction(_reduce_mc, _back_udmc, "mc", "udmc", "multiterminal-cut"),
}


@_file_verb
def cli_lift(record_path, solution_path, source_path, target_path, out_path):
    """Map a target solution back to the source: verify it as ``verify``
    does, back-map it, and verify the lifted solution the same way."""
    record = ReductionRecord.from_dict(read_json(record_path))
    src = read_json(source_path)
    tgt = read_json(target_path)
    if canonical_digest(src) != record.source_digest:
        raise PipelineError("source file does not match the record digest")
    if canonical_digest(tgt) != record.target_digest:
        raise PipelineError("target file does not match the record digest")
    candidate, budget = read_certificate(read_json(solution_path))
    red = REDUCTIONS[record.kind]
    source, target = PROBLEMS[red.source], PROBLEMS[red.target]
    tgt_inst = target.parse(tgt)
    ok, lines = target.verify(tgt_inst, candidate, budget)
    if not ok:
        raise Rejected("target solution rejected: " + "; ".join(lines))
    src_inst = source.parse(src)
    lifted, detail = red.back_map(record, src_inst, tgt_inst, candidate)
    ok, lines = source.verify(src_inst, lifted, None)
    if not ok:
        raise Rejected("lifted solution rejected: " + "; ".join(lines))
    out = {"problem": red.label, "candidate": lifted, "detail": detail}
    return 0, [f"lifted solution of size {len(lifted)}"], [(out, out_path)]


# ---------------------------------------------------------------------------
# rendering and reports
# ---------------------------------------------------------------------------

@_file_verb
def cli_render(input_path, out_path, guides: bool = False):
    data = read_json(input_path)
    if "disks" in data:
        svg = svg_for_instance(DiskInstance.from_dict(data), guides=guides)
    elif "coords" in data and "graph" in data:
        svg = svg_for_embedding(GridEmbedding.from_dict(data))
    else:
        raise PipelineError("file is neither a disk instance nor an embedding")
    return 0, [f"wrote {out_path}"], [(svg, out_path)]


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
