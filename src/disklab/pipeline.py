"""File-level orchestration: reductions with provenance records, certificate
checking with process exit codes, ground-truth solving, solution lifting, and
SVG rendering.

Everything here moves JSON between files and delegates the substance to the
owning modules.  Exit-code convention, shared by all verbs:

* 0 — accepted / succeeded,
* 1 — well-formed but rejected (failed verification, budget overrun,
  restriction violation, no solution, work past a meter's allowance),
* 2 — malformed input (unparseable files, schema violations, out-of-range
  ids, digest mismatches), raised as :class:`~disklab.base.Malformed`,
* 3 — a fault or a failed write, not the input: any other exception, which
  the verbs let through and the command line reports with its traceback.

Certificate files are ``{"problem": ..., "candidate": [...], "budget": n?}``
(:func:`read_certificate`): the candidate is a JSON list of element ids and
the budget, if present and not null, a JSON integer.  Solver outputs carry
``witness`` instead of ``candidate``; where their ``detail`` holds
``kept_edges`` (the face-separation solver, whose witness lists group ids)
those edge ids are the candidate.  Every verb but ``render`` parses its
instances with the :data:`PROBLEMS` entry of their problem, and ``verify``
and ``lift`` check certificates with that entry too.  The disk-file format
is ``arrangements``' own: ``reduce`` writes it by ``DiskInstance.to_text``
(:func:`instance_json`, which hashes it), and ``verify`` and ``solve`` of a
disk problem, and ``render``, read it with no JSON tree (:func:`read_instance`,
by ``DiskInstance.from_text``); every other file they read, and every file
``reduce`` and ``lift`` read (their digests need the tree), is parsed by
``json.loads``.  Either way, JSON that does not parse is refused as the file
is read, before the certificate, and an instance that does not hold only
after the certificate and the problem name are checked.  All outputs are
deterministic: JSON is written with sorted keys and instance digests are
SHA-256 over the compact canonical encoding.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .arrangements import (
    DiskInstance,
    check_ids,
    normalize_edge_list,
    verify_acc,
    verify_isolation,
    verify_multiterminal_cut,
)
from .base import (Malformed, Refused, Rejected, Verdict, indented_json, json_coords,
                   json_edge_key, json_graph, json_int_list, json_ints, json_key, json_list,
                   json_object)
from .corpus import rotation_graph
from .gadgets import (
    CHAIN_RADIUS,
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
    rational_to_str,
)
from .graphs import (
    Graph,
    MultiterminalInstance,
    SubdivisionInstance,
    fvs_solution_ok,
    lift_subdivision_solution,
    multiterminal_solution_ok,
    reduce_pmc_to_subdivision,
    subdivision_solution_ok,
)
from .gridembed import GridEmbedding, charge_drawing_check, grid_embed, require_simple
from .render import svg_for_embedding, svg_for_instance
from .solvers import (
    OptimumCertificate,
    brute_min_acc,
    brute_min_fvs,
    brute_min_isolation,
    brute_min_isolation_two_points,
    brute_min_multiterminal,
    brute_min_subdivision,
    min_terminal_pair_cut,
    multiterminal_cut_lower_bound,
)

# ---------------------------------------------------------------------------
# JSON plumbing
# ---------------------------------------------------------------------------

def canonical_digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def read_text(path) -> str:
    """The text of the file at ``path``; a file that cannot be read as UTF-8
    is :class:`Malformed`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:    # ValueError: UTF-8
        raise Malformed(str(exc)) from None


def json_text(text: str, path) -> dict:
    """The JSON object ``text``, the file at ``path``; any text that is not
    one is :class:`Malformed`."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise Malformed(str(exc)) from None
    return json_object(data, str(path))


def read_json(path) -> dict:
    """The JSON object in the file at ``path``; any file that is not one is :class:`Malformed`."""
    return json_text(read_text(path), path)


def read_instance(path, disks: bool):
    """The instance file at ``path``: when ``disks`` and its text is in the
    layout ``reduce`` writes, the :class:`DiskInstance` it holds,
    read without a JSON tree (:meth:`DiskInstance.from_text`); else its
    JSON object, as :func:`read_json` reads it.  Malformed JSON is refused
    here, and a malformed instance only where the tree is parsed."""
    text = read_text(path)
    inst = DiskInstance.from_text(text) if disks else None
    return json_text(text, path) if inst is None else inst


def write_json(obj, path) -> None:
    """Write :func:`indented_json` of ``obj`` and a newline.  Disk instances
    are written from :func:`instance_json`'s text instead."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(indented_json(obj) + "\n", encoding="utf-8")


def instance_json(inst) -> Tuple[str, str]:
    """The file text and the canonical digest of ``d = inst.to_dict()``:
    ``json.dumps(d, sort_keys=True, indent=2) + "\\n"`` and
    ``canonical_digest(d)``; a :class:`DiskInstance`'s without ``d``, by
    :meth:`DiskInstance.to_text`, which feeds the hash a block at a time."""
    if isinstance(inst, DiskInstance):
        digest = hashlib.sha256()
        return inst.to_text(digest.update), digest.hexdigest()
    d = inst.to_dict()
    return indented_json(d) + "\n", canonical_digest(d)


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
        raise Malformed("certificate carries neither 'candidate' nor 'witness'")
    json_list(candidate, "certificate candidate")
    budget = cert.get("budget")
    if budget is not None and type(budget) is not int:
        raise Malformed("certificate budget must be a JSON integer")
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
        field = functools.partial(json_key, d, what="a record")
        kind = str(field("kind"))
        if kind not in REDUCTIONS:
            raise Malformed(f"unknown reduction kind {kind!r}")
        edges = json_object(field("edges"), "record edges")
        for key in edges:
            json_edge_key(key, "record edge key")
        return cls(
            kind=kind,
            source_digest=str(field("source_digest")),
            target_digest=str(field("target_digest")),
            params=ParamSet.from_dict(d["params"]) if d.get("params") else None,
            edges=edges,
            vertices=json_object(field("vertices"), "record vertices"),
            terminals=json_object(field("terminals"), "record terminals"),
            notes=json_object(d.get("notes", {}), "record notes"),
        )


def _check_total(record_table: Dict[str, object], wanted: Iterable, what: str) -> None:
    missing = [k for k in (str(x) for x in wanted) if k not in record_table]
    if missing:
        raise Malformed(f"record {what} table misses {missing}")


# ---------------------------------------------------------------------------
# graph-shaped inputs
# ---------------------------------------------------------------------------

def plain_graph_from_dict(d: dict) -> Tuple[Graph, Optional[dict]]:
    """The graph (+ optional drawn coords, by vertex name) of an unembedded
    graph file, which names no terminals."""
    vertices, edges, by_name = json_graph(d)
    if d.get("terminals", []) not in ([], {}):
        raise Malformed('"terminals" must be absent or empty: this graph has none')
    coords = d.get("coords")
    if coords is not None:
        coords = json_coords(coords, "coords")
        if coords.keys() != by_name.keys():
            raise Malformed("coords must cover exactly the vertex set")
    return Graph(vertices, edges), coords


def embed_plain_graph(g: Graph) -> GridEmbedding:
    """Deterministic straight-line grid drawing of a plain (connected,
    planar, simple) graph: take networkx's combinatorial embedding
    (:func:`~disklab.corpus.rotation_graph`) and hand it to the grid
    drawer, once the drawing check's meter admits the graph's size."""
    if not g.vertices:
        raise Rejected("graph has no vertices")
    if not g.is_connected():
        raise Rejected("graph is disconnected: supply explicit 'coords'")
    charge_drawing_check(g.vertices, g.edges)
    return grid_embed(rotation_graph(g.vertices, g.edges))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _refuse_unread(mode: str, overrides, reads: Iterable[str] = ()) -> None:
    """Refuse the toy regime and every override but ``reads``: a reduction
    of fixed gadgets would ignore them and write the same bytes."""
    unread = sorted(overrides.keys() - set(reads))
    if unread:
        raise Malformed("this reduction does not read " + ", ".join(f"--{n}" for n in unread))
    if mode != "sound":
        raise Malformed(f"this reduction has no --params {mode} regime")


def _reduce_pmc(mti: MultiterminalInstance, mode: str,
                overrides) -> Tuple[SubdivisionInstance, dict]:
    _refuse_unread(mode, overrides)
    red = reduce_pmc_to_subdivision(mti)
    return red.instance, dict(
        params=None,
        edges={str(e): list(frags) for e, frags in red.pairing.items()},
        vertices={str(v): f for v, f in red.vertex_face.items()},
        terminals={str(t): red.instance.terminals[str(t)] for t in mti.terminals},
    )


def _isolation_params(emb: GridEmbedding, mode: str, overrides: Dict[str, Fraction]) -> ParamSet:
    params = compute_params(emb.grid_size, mode, overrides)
    if mode == "toy":
        params = params._replace(c_edge=toy_edge_budget(emb, params))
    return params


def _reduce_subdivision(sub: SubdivisionInstance, mode: str,
                        overrides) -> Tuple[DiskInstance, dict]:
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


def _chain_radius(mode: str, overrides) -> Fraction:
    """The disk radius of the ACC and UDMC chains: ``--r``, default
    ``CHAIN_RADIUS``, their only parameter."""
    _refuse_unread(mode, overrides, reads=("r",))
    r = overrides.get("r", CHAIN_RADIUS)
    if r <= 0:
        raise Malformed("parameters must be positive")
    return r


def _reduce_fvs(src, mode: str, overrides) -> Tuple[DiskInstance, dict]:
    r = _chain_radius(mode, overrides)
    g, coords = src
    # simple first: a loop is malformed whatever the degrees
    require_simple(g)
    # the first vertex of highest degree, in edge order
    for v, degree in Counter(v for e in g.edges for v in e).most_common(1):
        if degree > 4:
            raise Rejected(
                f"vertex {v!r} has degree {degree}; this reduction accepts maximum degree 4")
    placed = (embed_plain_graph(g).coords if coords is None
              else {v: coords[str(v)] for v in g.vertices})
    art = build_acc_instance(g, placed, r=r)
    return art.instance, dict(
        params=None,
        edges={str(e): ids for e, ids in art.chain_ids.items()},
        vertices={str(v): art.hub_of_vertex[v] for v in g.vertices},
        terminals={},
        notes={"r": rational_to_str(r), "cycle_rank": art.cycle_rank,
               "edge_ends": {str(e): [str(u), str(w)] for e, (u, w) in enumerate(g.edges)}},
    )


def _reduce_mc(mti: MultiterminalInstance, mode: str, overrides) -> Tuple[DiskInstance, dict]:
    r = _chain_radius(mode, overrides)
    emb = grid_embed(mti.graph)
    art = build_udmc_instance(mti, emb, r=r)
    return art.instance, dict(
        params=None,
        edges={str(eid): {"ends": [str(u), str(w)], "lanes": art.lanes[eid],
                          "cut_pairs": [list(p) for p in art.cut_pairs[eid]]}
               for eid, (u, w) in enumerate(mti.graph.edges)},
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
    (exit code, lines).  A refusal, a rejection or :class:`Malformed` input
    becomes its exit code and one prefixed line; any other exception, a
    fault, propagates.  The files are written after, outside that mapping, so
    a failed write is not reported as malformed input: a string payload (an
    SVG or an :func:`instance_json` text) as it is, anything else as JSON.  The
    cyclic collector is paused meanwhile and then restored: reference counts
    free what a verb builds, as no verb makes a cycle but networkx's drawing,
    the size of the source graph (``test_pipeline`` checks)."""
    @functools.wraps(verb)
    def run(*args, **kwargs) -> Tuple[int, List[str]]:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            code, lines, files = verb(*args, **kwargs)
        except Refused as exc:
            return 1, [f"refused: {exc}"]
        except Rejected as exc:
            return 1, [f"rejected: {exc}"]
        except Malformed as exc:
            return 2, [f"malformed: {exc}"]
        else:
            for payload, path in files:
                if isinstance(payload, str):
                    Path(path).parent.mkdir(parents=True, exist_ok=True)
                    Path(path).write_text(payload, encoding="utf-8")
                else:
                    write_json(payload, path)
            return code, lines
        finally:
            if was_enabled:
                gc.enable()
    return run


@_file_verb
def cli_reduce(kind: str, input_path, out_path, mode: str = "sound",
               overrides: Optional[Dict[str, Fraction]] = None):
    """Run one reduction end to end; writes the target instance and its
    provenance record, at the target path + '.record.json'."""
    src = read_json(input_path)
    if kind not in REDUCTIONS:
        raise Malformed(f"unknown reduction kind {kind!r}")
    red = REDUCTIONS[kind]
    target, tables = red.reduce(PROBLEMS[red.source].parse(src), mode, dict(overrides or {}))
    text, target_digest = instance_json(target)
    record = ReductionRecord(
        kind=kind,
        source_digest=canonical_digest(src),
        target_digest=target_digest,
        **tables,
    )
    _check_total(record.edges, range(len(src["edges"])), "edge")
    _check_total(record.vertices, src["vertices"], "vertex")
    record_path = str(out_path) + ".record.json"
    return 0, [f"wrote {out_path}", f"wrote {record_path}"], [
        (text, out_path), (record.to_dict(), record_path)]


# ---------------------------------------------------------------------------
# problems: parse, verify, solve
# ---------------------------------------------------------------------------

def _verify_mc(mti: MultiterminalInstance, candidate, budget) -> Verdict:
    removed = check_ids(candidate, len(mti.graph.edges), "certificate")
    reasons = []
    mass = sum(mti.weight(e) for e in removed)
    if budget is not None and mass > budget:
        reasons.append(f"budget: certificate weighs {mass}, cap {budget}")
    separated = multiterminal_solution_ok(mti, removed)
    if not separated:
        reasons.append("two terminals stay connected")
    return Verdict(separated and not reasons, reasons or [f"separated at weight {mass}"])


def _verify_subdivision(sub: SubdivisionInstance, candidate, budget) -> Verdict:
    kept = check_ids(candidate, len(sub.graph.edges), "certificate")
    kept_set = set(kept)
    reasons = []
    mass = 2 * sum(1 for grp in sub.edge_groups() if kept_set.issuperset(grp))
    if budget is not None and mass > budget:
        reasons.append(f"budget: certificate has mass {mass}, cap {budget}")
    separated = subdivision_solution_ok(sub, kept)
    if not separated:
        reasons.append("two marked faces stay in one region")
    return Verdict(separated and not reasons, reasons or [f"separated at mass {mass}"])


def _verify_fvs(src, candidate, budget) -> Verdict:
    # vertex ids match by their string form: a lifted solution names them so
    g, _ = src
    position = {str(v): i for i, v in enumerate(g.vertices)}
    names = set(str(v) for v in candidate)
    if not names <= position.keys():
        raise Malformed("certificate names an unknown vertex")
    reasons = []
    if budget is not None and len(names) > budget:
        reasons.append(f"budget: certificate removes {len(names)} vertices, cap {budget}")
    acyclic = fvs_solution_ok(g, [position[n] for n in names])
    if not acyclic:
        reasons.append("a cycle survives the removal")
    return Verdict(acyclic and not reasons,
                   reasons or [f"acyclic after removing {len(names)} vertices"])


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
    # (instance, candidate, budget or None) -> verdict; None: no verify
    verify: Optional[Callable[[object, list, Optional[int]], Verdict]] = None
    # instance -> optimum; None: no solve
    solve: Optional[Callable[[object], OptimumCertificate]] = None


def _disks(data) -> DiskInstance:
    """The instance :func:`read_instance` read, or the one in its JSON object."""
    return data if isinstance(data, DiskInstance) else DiskInstance.from_dict(data)


# problem -> its stages.  Like REDUCTIONS, the entries call the public stage
# functions and ``from_dict`` by name at call time.
PROBLEMS = {
    "mc": Problem(lambda d: MultiterminalInstance.from_dict(d), _verify_mc,
                  lambda mti: brute_min_multiterminal(mti)),
    "subdivision": Problem(lambda d: SubdivisionInstance.from_dict(d), _verify_subdivision,
                           lambda sub: brute_min_subdivision(sub)),
    "fvs": Problem(plain_graph_from_dict, _verify_fvs, lambda src: brute_min_fvs(src[0])),
    "isolation": Problem(_disks, lambda inst, c, b: verify_isolation(inst, c, b), _solve_isolation),
    "acc": Problem(_disks, lambda inst, c, b: verify_acc(inst, c, b),
                   lambda inst: brute_min_acc(inst)),
    "udmc": Problem(_disks, lambda inst, c, b: verify_multiterminal_cut(inst, c, b)),
    "terminal-pair-cut": Problem(_disks, solve=lambda inst: min_terminal_pair_cut(inst)),
    "udmc-bound": Problem(_disks, solve=_solve_udmc_bound),
}


def problems_with(verb: str) -> List[str]:
    """The problems that have a ``verb`` ("verify" or "solve") entry."""
    return [name for name, entry in PROBLEMS.items() if getattr(entry, verb) is not None]


def _reads_disks(name: str) -> bool:
    """Whether ``name`` is a problem on disk instances."""
    return name in PROBLEMS and PROBLEMS[name].parse is _disks


def _problem(name: str, verb: str) -> Problem:
    if name not in problems_with(verb):
        raise Malformed(f"unknown problem {name!r}")
    return PROBLEMS[name]


@_file_verb
def cli_verify(problem: str, instance_path, certificate_path):
    """Check a certificate file; exit 1 if it fails."""
    data = read_instance(instance_path, _reads_disks(problem))
    candidate, budget = read_certificate(read_json(certificate_path))
    entry = _problem(problem, "verify")
    inst = entry.parse(data)
    del data    # a parsed tree outweighs the instance built from it
    ok, lines = entry.verify(inst, candidate, budget)
    return (0 if ok else 1), lines, []


@_file_verb
def cli_solve(problem: str, instance_path, out_path):
    """Solve to optimality (or refuse); writes an OptimumCertificate JSON."""
    data = read_instance(instance_path, _reads_disks(problem))
    entry = _problem(problem, "solve")
    inst = entry.parse(data)
    del data    # as in cli_verify
    cert = entry.solve(inst)
    out = {"problem": cert.problem, "optimum": cert.optimum, "witness": cert.witness,
           "method": cert.method, "detail": cert.detail}
    return 0, [f"optimum {cert.optimum} with witness of size {len(cert.witness)}"], [
        (out, out_path)]


# ---------------------------------------------------------------------------
# lifting: the back-maps of (record, source, verified target candidate) to
# (source candidate, detail); each reads the record, never the target
# ---------------------------------------------------------------------------

def _groups(record) -> Dict[int, list]:
    """Source edge -> the target ids it became (dual-edge fragments, wall
    disks).  An empty group would be lifted whatever the candidate keeps."""
    groups = {int(e): json_int_list(ids, "record group ids") for e, ids in record.edges.items()}
    if not all(groups.values()):
        raise Malformed("a record group must hold at least one id")
    return groups


def _back_pmc(record, mti, kept) -> Tuple[List[int], dict]:
    return lift_subdivision_solution(_groups(record), kept), {"kept_edges": sorted(set(kept))}


def _back_isolation(record, sub, chosen) -> Tuple[List[int], dict]:
    if record.params is None or record.params.c_edge < 1:
        raise Malformed("an isolation record needs params with c_edge >= 1")
    k1, c_edge = len(set(chosen)), record.params.c_edge
    return lift_fence_to_edges(_groups(record), chosen), {
        "k1": k1, "c_edge": c_edge, "floor_bound": k1 // c_edge}


def _ends(pair, what: str) -> list:
    """The two vertex names a record gives for an edge's ends."""
    if type(pair) is not list or len(pair) != 2 or any(type(v) is not str for v in pair):
        raise Malformed(f"{what} must be JSON lists of two vertex names")
    return pair


def _back_acc(record, graph, removed) -> Tuple[List[str], dict]:
    # a hub lifts to its vertex; a chain deletion is dominated by deleting
    # either endpoint hub, so a chain disk lifts to its edge's first end
    hubs = json_ints(record.vertices.values(), "record hub ids")
    vertex_of = dict(zip(hubs, record.vertices))
    ends = json_key(record.notes, "edge_ends", "record notes")
    for e, ids in record.edges.items():
        first = _ends(json_key(ends, e, "record edge ends"), "record edge ends")[0]
        vertex_of.update(dict.fromkeys(json_int_list(ids, "record chain ids"), first))
    if not vertex_of.keys() >= set(removed):
        raise Malformed("the record maps a removed disk to no vertex")
    return sorted({vertex_of[i] for i in removed}), {}


def _back_udmc(record, mti, pairs) -> Tuple[List[int], dict]:
    removed = normalize_edge_list(pairs)
    sigma_of = {i: v for v, entry in record.vertices.items() for i in
                json_int_list(json_key(entry, "sigma", "a record vertex"), "record sigma ids")}

    def severed(lane, ends) -> bool:
        # a removed pair inside the lane, or joining a lane end to the
        # ring copies of the edge's end vertices
        ids, tips = set(lane), {lane[0], lane[-1]}
        return any((i in ids and j in ids) or (i in tips and sigma_of.get(j) in ends)
                   or (j in tips and sigma_of.get(i) in ends) for i, j in removed)

    lanes, ends = {}, {}
    for e, entry in record.edges.items():
        lanes[e] = [json_int_list(lane, "record lane ids")
                    for lane in json_list(json_key(entry, "lanes", "a record edge"), "record lanes")]
        ends[e] = set(_ends(json_key(entry, "ends", "a record edge"), "record ends"))
    if not all(lane for group in lanes.values() for lane in group):
        raise Malformed("a record lane must hold at least one id")
    lifted = sorted(int(e) for e in record.edges if all(severed(lane, ends[e]) for lane in lanes[e]))
    return lifted, {"weight": sum(mti.weight(e) for e in lifted)}


class Reduction(NamedTuple):
    # (source instance, mode, overrides) -> (target instance, the record's
    # params, edges, vertices, terminals and notes)
    reduce: Callable[[object, str, Dict[str, Fraction]], Tuple[object, dict]]
    # (record, source instance, verified target candidate) -> (source
    # candidate, detail)
    back_map: Callable[[ReductionRecord, object, list], Tuple[list, dict]]
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
        raise Malformed("source file does not match the record digest")
    if canonical_digest(tgt) != record.target_digest:
        raise Malformed("target file does not match the record digest")
    candidate, budget = read_certificate(read_json(solution_path))
    red = REDUCTIONS[record.kind]
    source, target = PROBLEMS[red.source], PROBLEMS[red.target]
    ok, lines = target.verify(target.parse(tgt), candidate, budget)
    if not ok:
        raise Rejected("target solution rejected: " + "; ".join(lines))
    src_inst = source.parse(src)
    lifted, detail = red.back_map(record, src_inst, candidate)
    ok, lines = source.verify(src_inst, lifted, None)
    if not ok:
        raise Rejected("lifted solution rejected: " + "; ".join(lines))
    out = {"problem": red.label, "candidate": lifted, "detail": detail}
    return 0, [f"lifted solution of size {len(lifted)}"], [(out, out_path)]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

@_file_verb
def cli_render(input_path, out_path, guides: bool = False):
    drawing = _drawing(read_instance(input_path, disks=True))
    if isinstance(drawing, DiskInstance):
        svg = svg_for_instance(drawing, guides=guides)
    else:
        svg = svg_for_embedding(drawing)
    return 0, [f"wrote {out_path}"], [(svg, out_path)]


def _drawing(data):
    """The disk instance or grid embedding :func:`read_instance` read; the
    caller keeps only this, not a parsed tree, while it draws."""
    if isinstance(data, DiskInstance) or "disks" in data:
        return _disks(data)
    return GridEmbedding.from_dict(data)

